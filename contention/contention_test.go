package contention

import (
	"testing"

	"github.com/stm-go/stm/internal/backoff"
)

func TestDefaultIsExpBackoff(t *testing.T) {
	if _, ok := Default().(*ExpBackoff); !ok {
		t.Fatalf("Default() = %T, want *ExpBackoff", Default())
	}
}

func TestExpBackoffStatePerOperation(t *testing.T) {
	p := Default()
	c := &Conflict{Addr: 1}
	c.Attempts++
	p.OnConflict(c)
	bo, ok := c.State.(*backoff.Exp)
	if !ok {
		t.Fatalf("State = %T, want *backoff.Exp", c.State)
	}
	c.Attempts++
	p.OnConflict(c)
	if c.State.(*backoff.Exp) != bo {
		t.Error("backoff state not reused across the operation's conflicts")
	}
}
