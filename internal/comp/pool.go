package comp

import (
	"sync"

	"purec/internal/mem"
	"purec/internal/rt"
)

// PoolOptions configure a ProcessPool.
type PoolOptions struct {
	// Size bounds the idle Processes the pool retains (minimum 1).
	// Get never blocks on the bound — a drained pool hands out fresh
	// Processes; Put discards beyond it.
	Size int
	// NewTeam constructs the worker team of each fresh pooled Process
	// (nil means rt.NewTeam(1)). The team stays with its Process across
	// reuses — teams spawn workers per region, so reuse costs nothing
	// and keeps the simulated-time accounting object stable.
	NewTeam func() *rt.Team
	// PrivateMemo gives each pooled Process its own memo table instead
	// of the Program-shared default (see ProcOptions.PrivateMemo). The
	// default — sharing the Program's table — is what a serving pool
	// wants: pure-call results are referentially transparent, so a table
	// warmed by one request serves every later one.
	PrivateMemo bool
}

// PoolStats counts a pool's traffic. Reuses is the headline number: how
// many runs were served by resetting an existing Process instead of
// allocating a fresh one.
type PoolStats struct {
	Gets      uint64
	Reuses    uint64
	Fresh     uint64
	Discarded uint64
}

// ProcessPool hands out Processes of one Program for sequential
// per-request use and takes them back for reuse. Each pooled Process
// owns a mem.Arena, so returning it resets-without-reallocating: the
// previous run's segments are poisoned (stale pointers trap, exactly
// the free() contract) while their backing storage feeds the next
// run's allocations. A Process obtained from Get is exclusively the
// caller's until Put; distinct pooled Processes run concurrently.
type ProcessPool struct {
	prog *Program
	opts PoolOptions

	mu   sync.Mutex
	idle []*Process

	gets, reuses, fresh, discarded uint64
}

// NewPool creates a Process pool for the program.
func (p *Program) NewPool(opts PoolOptions) *ProcessPool {
	if opts.Size < 1 {
		opts.Size = 1
	}
	if opts.NewTeam == nil {
		opts.NewTeam = func() *rt.Team { return rt.NewTeam(1) }
	}
	return &ProcessPool{prog: p, opts: opts}
}

// Get returns a Process in the program's initial state: an idle pooled
// Process reset in place when one is available, a fresh arena-backed
// Process otherwise (Process.Reused tells which). The caller runs it
// sequentially and returns it with Put.
func (pl *ProcessPool) Get() (*Process, error) {
	pl.mu.Lock()
	var proc *Process
	if n := len(pl.idle); n > 0 {
		proc = pl.idle[n-1]
		pl.idle[n-1] = nil
		pl.idle = pl.idle[:n-1]
	}
	pl.gets++
	pl.mu.Unlock()
	if proc != nil {
		if err := proc.Reset(); err == nil {
			pl.mu.Lock()
			pl.reuses++
			pl.mu.Unlock()
			proc.reused = true
			return proc, nil
		}
		// A Process that cannot reset is discarded; fall through to a
		// fresh one so the request still runs.
		pl.mu.Lock()
		pl.discarded++
		pl.mu.Unlock()
	}
	fresh, err := pl.prog.newProcess(ProcOptions{
		Team:        pl.opts.NewTeam(),
		PrivateMemo: pl.opts.PrivateMemo,
	}, mem.NewArena())
	if err != nil {
		return nil, err
	}
	pl.mu.Lock()
	pl.fresh++
	pl.mu.Unlock()
	return fresh, nil
}

// Put returns a Process to the pool for reuse. Beyond the size bound
// the Process is discarded (its storage goes to the garbage collector,
// exactly as an unpooled Process would). Put accepts a Process in any
// state — trapped runs included — because Get resets before reuse.
func (pl *ProcessPool) Put(proc *Process) {
	if proc == nil || proc.prog != pl.prog {
		return
	}
	proc.SetStdout(nil)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.idle) >= pl.opts.Size {
		pl.discarded++
		return
	}
	pl.idle = append(pl.idle, proc)
}

// Stats snapshots the pool counters.
func (pl *ProcessPool) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return PoolStats{Gets: pl.gets, Reuses: pl.reuses, Fresh: pl.fresh, Discarded: pl.discarded}
}

// Program returns the program the pool serves.
func (pl *ProcessPool) Program() *Program { return pl.prog }
