package budget

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestCheckLiveContext(t *testing.T) {
	if err := Check(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if err := Check(nil); err != nil {
		t.Fatalf("nil context: %v", err)
	}
}

func TestCheckExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Check(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context: got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context should keep the cause: %v", err)
	}
}

func TestCheckCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: got %v", err)
	}
}

func TestIsExhausted(t *testing.T) {
	for _, sentinel := range []error{ErrDeadline, ErrNodeLimit, ErrIterLimit, ErrStepLimit} {
		if !IsExhausted(fmt.Errorf("wrapped: %w", sentinel)) {
			t.Errorf("IsExhausted(%v) = false", sentinel)
		}
	}
	if IsExhausted(errors.New("parse error")) {
		t.Error("IsExhausted(parse error) = true")
	}
	if IsExhausted(nil) {
		t.Error("IsExhausted(nil) = true")
	}
}

func TestUnlimited(t *testing.T) {
	if !(Budget{}).Unlimited() {
		t.Error("zero budget should be unlimited")
	}
	if (Budget{MaxNodes: 1}).Unlimited() {
		t.Error("node-limited budget reported unlimited")
	}
	if !(Budget{Parallelism: 8}).Unlimited() {
		t.Error("parallelism is not a work limit; budget should stay unlimited")
	}
}
