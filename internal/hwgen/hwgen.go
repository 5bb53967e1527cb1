// Package hwgen emits synthesizable Verilog for the hardware modules the
// Partita flow generates around a selected configuration (Choi et al.,
// DAC 1999, Section 2): interface controller FSMs (types 2/3), protocol
// transformers, and the instruction decode unit that dispatches P/C/S
// classes to the µ-ROM and the interface start signals.
//
// The RTL is deliberately simple — two-process FSMs with one-hot-ready
// state encoding and a ROM-style decode table — but it is structurally
// complete: every state and transition of the iface.FSM appears, the
// decode case covers every assigned opcode, and the module interfaces
// carry the memory/IP ports of Fig. 1.
package hwgen

import (
	"fmt"
	"strings"

	"partita/internal/encode"
	"partita/internal/iface"
	"partita/internal/ip"
)

// sanitize makes an identifier Verilog-safe.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	out := b.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "m_" + out
	}
	return out
}

// FSMModule renders one interface controller FSM as a Verilog module.
func FSMModule(f *iface.FSM) string {
	name := sanitize(f.Name)
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: generated %s interface controller (%d states)\n", name, f.Type, len(f.States))
	fmt.Fprintf(&b, "module %s (\n", name)
	b.WriteString("    input  wire        clk,\n")
	b.WriteString("    input  wire        rst_n,\n")
	b.WriteString("    input  wire        start,\n")
	b.WriteString("    output reg         done,\n")
	b.WriteString("    // dual data-memory DMA port (Fig. 1)\n")
	b.WriteString("    output reg  [15:0] addr_x, addr_y,\n")
	b.WriteString("    output reg         rw_x, rw_y,\n")
	b.WriteString("    // IP-side standard synchronous port\n")
	b.WriteString("    output reg         ip_start,\n")
	b.WriteString("    input  wire        ip_done\n")
	b.WriteString(");\n\n")

	width := 1
	for 1<<width < len(f.States) {
		width++
	}
	for i, st := range f.States {
		fmt.Fprintf(&b, "  localparam [%d:0] S_%s = %d'd%d;\n", width-1, sanitize(st.Name), width, i)
	}
	fmt.Fprintf(&b, "\n  reg [%d:0] state, next;\n\n", width-1)

	b.WriteString("  always @(posedge clk or negedge rst_n)\n")
	b.WriteString("    if (!rst_n) state <= S_IDLE;\n")
	b.WriteString("    else        state <= next;\n\n")

	b.WriteString("  always @* begin\n")
	b.WriteString("    next = state;\n")
	b.WriteString("    done = 1'b0;\n")
	b.WriteString("    ip_start = 1'b0;\n")
	b.WriteString("    case (state)\n")
	for _, st := range f.States {
		fmt.Fprintf(&b, "      S_%s: begin\n", sanitize(st.Name))
		for _, a := range st.Actions {
			fmt.Fprintf(&b, "        // %s\n", a)
		}
		if strings.Contains(st.Name, "RUN") || strings.Contains(st.Name, "CONNECT") {
			b.WriteString("        ip_start = 1'b1;\n")
		}
		if st.Name == "DONE" {
			b.WriteString("        done = 1'b1;\n")
		}
		if st.Next != "" {
			if st.Cond != "" {
				fmt.Fprintf(&b, "        if (%s) next = S_%s;\n", condSignal(st.Cond), sanitize(st.Next))
			} else {
				fmt.Fprintf(&b, "        next = S_%s;\n", sanitize(st.Next))
			}
		}
		b.WriteString("      end\n")
	}
	b.WriteString("      default: next = S_IDLE;\n")
	b.WriteString("    endcase\n")
	b.WriteString("  end\n\n")
	b.WriteString("endmodule\n")
	return b.String()
}

// condSignal maps a documentation-level condition to a signal expression.
func condSignal(cond string) string {
	switch {
	case cond == "start":
		return "start"
	case cond == "IP done":
		return "ip_done"
	case strings.Contains(cond, "== 0"):
		return sanitize(strings.Fields(cond)[0]) + "_zero"
	}
	return sanitize(cond)
}

// TransformerModule renders the protocol transformer of Fig. 1 for one
// IP's native protocol.
func TransformerModule(b *ip.IP) string {
	name := "pt_" + sanitize(b.ID)
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s: protocol transformer (%s → standard synchronous)\n", name, b.Protocol)
	fmt.Fprintf(&sb, "module %s (\n", name)
	sb.WriteString("    input  wire        clk,\n")
	sb.WriteString("    input  wire        rst_n,\n")
	sb.WriteString("    input  wire [15:0] std_data_in,\n")
	sb.WriteString("    output wire [15:0] std_data_out,\n")
	switch b.Protocol {
	case ip.Handshake:
		sb.WriteString("    output reg         req,\n")
		sb.WriteString("    input  wire        ack,\n")
	case ip.Strobe:
		sb.WriteString("    output reg         strobe,\n")
	}
	sb.WriteString("    output wire [15:0] ip_data_in,\n")
	sb.WriteString("    input  wire [15:0] ip_data_out\n")
	sb.WriteString(");\n")
	sb.WriteString("  assign ip_data_in  = std_data_in;\n")
	sb.WriteString("  assign std_data_out = ip_data_out;\n")
	states := b.Protocol.TransformerStates()
	if states > 0 {
		fmt.Fprintf(&sb, "  // %d-state adapter FSM\n", states)
		width := 1
		for 1<<width < states {
			width++
		}
		fmt.Fprintf(&sb, "  reg [%d:0] pt_state;\n", width-1)
		sb.WriteString("  always @(posedge clk or negedge rst_n)\n")
		sb.WriteString("    if (!rst_n) pt_state <= 0;\n")
		fmt.Fprintf(&sb, "    else        pt_state <= (pt_state + 1) %% %d;\n", states)
		switch b.Protocol {
		case ip.Handshake:
			sb.WriteString("  always @* req = (pt_state == 1) && !ack;\n")
		case ip.Strobe:
			sb.WriteString("  always @* strobe = (pt_state == 1);\n")
		}
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// DecodeUnit renders the instruction decoder for an encoded image: a
// class splitter plus per-class dispatch ROMs (P → µ-ROM word index,
// C → routine start/length, S → interface start lines).
func DecodeUnit(im *encode.Image) string {
	var b strings.Builder
	b.WriteString("// decode_unit: generated instruction decoder\n")
	b.WriteString("module decode_unit (\n")
	b.WriteString("    input  wire [31:0] instr,\n")
	b.WriteString("    output wire [1:0]  class_bits,\n")
	b.WriteString("    output wire [29:0] opcode,\n")
	fmt.Fprintf(&b, "    output reg  [15:0] urom_addr,   // %d dictionary words\n", im.UniqueWords)
	fmt.Fprintf(&b, "    output reg  [7:0]  urom_len,\n")
	fmt.Fprintf(&b, "    output reg  [%d:0]  s_start      // one-hot interface start\n", max(len(im.SRoutines)-1, 0))
	b.WriteString(");\n\n")
	b.WriteString("  assign class_bits = instr[31:30];\n")
	b.WriteString("  assign opcode     = instr[29:0];\n\n")
	b.WriteString("  always @* begin\n")
	b.WriteString("    urom_addr = 16'd0;\n")
	b.WriteString("    urom_len  = 8'd1;\n")
	b.WriteString("    s_start   = 0;\n")
	b.WriteString("    case (class_bits)\n")
	b.WriteString("      2'b00: urom_addr = opcode[15:0]; // P: direct dictionary index\n")
	b.WriteString("      2'b01: case (opcode) // C: routine table\n")
	for i, r := range im.CRoutines {
		start := 0
		if len(r.Words) > 0 {
			start = r.Words[0]
		}
		fmt.Fprintf(&b, "        30'd%d: begin urom_addr = 16'd%d; urom_len = 8'd%d; end // %s\n",
			i, start, len(r.Words), r.ID)
	}
	b.WriteString("        default: ;\n      endcase\n")
	b.WriteString("      2'b10: case (opcode) // S: interface dispatch\n")
	for i, r := range im.SRoutines {
		fmt.Fprintf(&b, "        30'd%d: s_start = 1 << %d; // %s\n", i, i, sanitize(r.Name))
	}
	b.WriteString("        default: ;\n      endcase\n")
	b.WriteString("      default: ;\n")
	b.WriteString("    endcase\n")
	b.WriteString("  end\n\n")
	b.WriteString("endmodule\n")
	return b.String()
}

// System renders the full generated hardware of a configuration: one
// transformer and (for hardware interface types) one controller FSM per
// distinct IP attachment, plus the decode unit.
type Attachment struct {
	IP    *ip.IP
	Type  iface.Type
	Shape iface.Shape
}

// GenerateSystem emits all modules for the attachments and image.
func GenerateSystem(atts []Attachment, im *encode.Image) string {
	var b strings.Builder
	b.WriteString("// Generated by partita hwgen — interface controllers, protocol\n")
	b.WriteString("// transformers, and the decode unit for one selected configuration.\n\n")
	seen := map[string]bool{}
	for _, a := range atts {
		key := a.IP.ID + "/" + a.Type.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if !a.Type.Software() {
			f, err := iface.ControllerFSM(a.Type, a.IP, a.Shape)
			if err != nil {
				// Unreachable (the guard above admits hardware types
				// only); keep the generated file well-formed regardless.
				fmt.Fprintf(&b, "// skipped %s: %v\n\n", key, err)
				continue
			}
			b.WriteString(FSMModule(f))
			b.WriteString("\n")
		}
		b.WriteString(TransformerModule(a.IP))
		b.WriteString("\n")
	}
	if im != nil {
		b.WriteString(DecodeUnit(im))
	}
	return b.String()
}
