package incumbent

import "context"

// PollInterval is how many candidates an exhaustive scan visits between
// context polls: frequent enough that cancellation lands within
// microseconds, sparse enough that the poll cost vanishes against the
// search work.
const PollInterval = 64

// Poller spreads context polls over an exhaustive scan's loops: the
// scan calls Ok once per candidate at its innermost level. Once the
// context is cancelled the poller latches the error and every later Ok
// fails fast, unwinding the search. Reset arms it for a scan; the first
// Ok after a Reset polls, so a scan on a cancelled context fails before
// it does any work.
type Poller struct {
	ctx context.Context
	// credit counts the candidates left until the next poll. The hot
	// path is a single predictable decrement-and-branch; err can only be
	// latched when credit is exhausted, so credit > 0 implies err == nil.
	credit int
	err    error
}

// Reset arms the poller for a scan on ctx.
func (p *Poller) Reset(ctx context.Context) {
	p.ctx, p.credit, p.err = ctx, 0, nil
}

// Ok reports whether the scan may continue, polling the context every
// PollInterval calls.
func (p *Poller) Ok() bool {
	if p.credit > 0 {
		p.credit--
		return true
	}
	if p.err != nil {
		return false
	}
	if err := p.ctx.Err(); err != nil {
		p.err = err
		return false
	}
	p.credit = PollInterval - 1
	return true
}

// Err returns the latched context error, nil while the scan may run.
func (p *Poller) Err() error { return p.err }
