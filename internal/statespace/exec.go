package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/memsim"
)

// Phase mirrors the controller's view of one process.
type Phase uint8

const (
	Idle Phase = iota
	Pending
	Done
)

// Choice is one scheduling decision: apply PID's pending access, start
// PID's next scripted call, or — under an enabled FaultPolicy — inject a
// fault at PID's pending access (crash the process, or apply its CAS and
// drop the response).
type Choice struct {
	PID   memsim.PID
	Start bool
	Fault memsim.FaultKind
}

// String renders the choice compactly: "p0" step, "p1+" call start,
// "p0!" crash, "p0?" lost CAS.
func (c Choice) String() string {
	switch c.Fault {
	case memsim.FaultCrash:
		return fmt.Sprintf("p%d!", c.PID)
	case memsim.FaultLostCAS:
		return fmt.Sprintf("p%d?", c.PID)
	}
	if c.Start {
		return fmt.Sprintf("p%d+", c.PID)
	}
	return fmt.Sprintf("p%d", c.PID)
}

// Sleeps reports whether sleep silences c. A fault choice never sleeps:
// a sleep bit argues about the process's ordinary step, not about
// crashing it.
func (c Choice) Sleeps(sleep uint64) bool {
	return c.Fault == memsim.FaultNone && sleep&(1<<uint(c.PID)) != 0
}

// DenseScripts flattens the per-pid script map into a pid-indexed slice so
// the settle/apply/stateKey hot loops index instead of hashing. A nil row
// means the pid is unscripted; a present-but-empty script stays non-nil
// (the pid is scripted, with nothing to run).
func DenseScripts(n int, scripts map[memsim.PID][]memsim.CallKind) [][]memsim.CallKind {
	dense := make([][]memsim.CallKind, n)
	for p, s := range scripts {
		if int(p) < 0 || int(p) >= n {
			continue
		}
		if s == nil {
			s = []memsim.CallKind{}
		}
		dense[p] = s
	}
	return dense
}

// ErrNoResumableTier is wrapped by Init when the deployed instance cannot
// hand out resumable frames.
var ErrNoResumableTier = errors.New("no resumable tier")

// Exec is one worker's live execution: one machine, one frame per
// process, the per-process scheduler arrays, the machine undo log and the
// applied choice indices. Process state is held in resumable frames
// (plain copyable structs, snapshotted per tree node) and shared memory
// is wound back through the undo log, so moving to a sibling schedule
// retracts one decision instead of replaying the prefix.
type Exec struct {
	Mach     *memsim.Machine
	Inst     memsim.ResumableInstance
	N        int
	Scripts  [][]memsim.CallKind // see DenseScripts
	Frames   []memsim.Resumable
	Phase    []Phase
	Pending  []memsim.Access
	Rets     []memsim.Value
	Kinds    []memsim.CallKind
	Progress []int
	Undos    []memsim.Undo
	Path     []int // applied choice indices, for task prefixes

	// Faults is the policy in force and FaultsUsed the number of faults
	// the current prefix has injected. FaultsUsed joins the state key
	// whenever the policy is enabled: the remaining budget shapes the
	// subtree below a state.
	Faults     memsim.FaultPolicy
	FaultsUsed int

	// KeyBuf is the state-key build buffer, reused node to node. See
	// "hot-path memory discipline" in docs/ARCHITECTURE.md.
	KeyBuf     []byte
	choiceBufs [][]Choice

	// UndoMax is the undo-log high-water mark, sampled at Save. It is
	// telemetry only: nothing in a traversal reads it.
	UndoMax int
}

// Init deploys factory's instance on a fresh n-process machine. It fails
// (wrapping ErrNoResumableTier) when the instance has no resumable tier.
func (x *Exec) Init(factory memsim.Factory, n int, scripts map[memsim.PID][]memsim.CallKind, faults memsim.FaultPolicy) error {
	m := memsim.NewMachine(n)
	inst, err := factory(m, n)
	if err != nil {
		return fmt.Errorf("deploy instance: %w", err)
	}
	ri, ok := inst.(memsim.ResumableInstance)
	if !ok {
		return fmt.Errorf("%T has %w", inst, ErrNoResumableTier)
	}
	*x = Exec{
		Mach:     m,
		Inst:     ri,
		N:        n,
		Scripts:  DenseScripts(n, scripts),
		Frames:   make([]memsim.Resumable, n),
		Phase:    make([]Phase, n),
		Pending:  make([]memsim.Access, n),
		Rets:     make([]memsim.Value, n),
		Kinds:    make([]memsim.CallKind, n),
		Progress: make([]int, n),
		Faults:   faults,
	}
	return nil
}

// exec lets the Engine interface reach the substrate an engine embeds.
func (x *Exec) exec() *Exec { return x }

// advance feeds prev into pid's frame and records its next scheduling point.
func (x *Exec) advance(pid memsim.PID, prev memsim.Result) {
	if acc, ok := x.Frames[pid].Next(prev); ok {
		x.Pending[pid] = acc
		x.Phase[pid] = Pending
	} else {
		x.Rets[pid] = x.Frames[pid].Return()
		x.Phase[pid] = Done
	}
}

// Settle collects completed calls and returns the open scheduling choices
// in deterministic order, in a fresh slice.
func (x *Exec) Settle() []Choice {
	return x.settleInto(nil)
}

// SettleAt is Settle writing into the depth-indexed choice buffer: a
// traversal settles each node exactly once and recursion uses deeper
// buffers, so one buffer per depth makes the settle loop allocation-free
// after warm-up. The returned slice is valid until the same depth settles
// again.
func (x *Exec) SettleAt(depth int) []Choice {
	for len(x.choiceBufs) <= depth {
		x.choiceBufs = append(x.choiceBufs, make([]Choice, 0, x.N))
	}
	choices := x.settleInto(x.choiceBufs[depth][:0])
	x.choiceBufs[depth] = choices
	return choices
}

func (x *Exec) settleInto(choices []Choice) []Choice {
	for pid := 0; pid < x.N; pid++ {
		p := memsim.PID(pid)
		script := x.Scripts[p]
		if script == nil {
			continue
		}
		if x.Phase[p] == Done {
			if x.Kinds[p] == memsim.CallPoll && x.Rets[p] != 0 {
				// The waiter observed the signal; the problem statement
				// says it stops polling.
				x.Progress[p] = len(script)
			}
			x.Phase[p] = Idle
			x.Frames[p] = nil
		}
		if x.Phase[p] == Pending {
			choices = append(choices, Choice{PID: p})
			continue
		}
		if x.Phase[p] == Idle && x.Progress[p] < len(script) {
			choices = append(choices, Choice{PID: p, Start: true})
		}
	}
	// Fault choice points come after every regular choice, so the
	// fault-free enumeration is a prefix of the faulty one and a disabled
	// policy changes nothing. The order mirrors the replay engines'
	// exactly: PID order, crash before lost CAS.
	if x.Faults.Enabled() && x.FaultsUsed < x.Faults.Max {
		for pid := 0; pid < x.N; pid++ {
			p := memsim.PID(pid)
			if x.Phase[p] != Pending {
				continue
			}
			if x.Faults.Kinds.Has(memsim.FaultCrash) {
				choices = append(choices, Choice{PID: p, Fault: memsim.FaultCrash})
			}
			// A lost CAS is only distinguishable from a plain failed CAS
			// when the CAS would have succeeded.
			if x.Faults.Kinds.Has(memsim.FaultLostCAS) && x.Pending[p].Op == memsim.OpCAS &&
				x.Mach.Load(x.Pending[p].Addr) == x.Pending[p].Arg1 {
				choices = append(choices, Choice{PID: p, Fault: memsim.FaultLostCAS})
			}
		}
	}
	return choices
}

// Apply performs the substrate's part of one scheduling decision: start
// the process's next scripted call, grant its pending access (logging the
// machine undo), or inject a fault. idx is c's index in the node's
// settled choice set, recorded so any tree position can be re-reached
// from the root by index sequence alone. When c applied an access (a step
// or a lost CAS) Apply returns it with memory's response, for the engine
// to log or price.
func (x *Exec) Apply(c Choice, idx int) (acc memsim.Access, res memsim.Result, err error) {
	p := c.PID
	switch {
	case c.Fault == memsim.FaultCrash:
		// Mirror Controller.Crash: the in-flight call is abandoned (frame
		// dropped), the script position rewinds so the same call
		// restarts, and the machine applies the fault's memory effect
		// through the undo log.
		x.Undos = x.Mach.CrashLogged(p, x.Faults.Vol, x.Undos)
		x.Progress[p]--
		x.Phase[p] = Idle
		x.Frames[p] = nil
		x.FaultsUsed++
	case c.Start:
		kind := x.Scripts[p][x.Progress[p]]
		r, err := x.Inst.ResumableProgram(p, kind)
		if err != nil {
			return acc, res, fmt.Errorf("start %v on p%d: %w", kind, p, err)
		}
		x.Progress[p]++
		x.Kinds[p] = kind
		x.Frames[p] = r
		x.advance(p, memsim.Result{})
	default:
		acc = x.Pending[p]
		var undo memsim.Undo
		res, undo = x.Mach.ApplyLogged(p, acc)
		x.Undos = append(x.Undos, undo)
		if c.Fault == memsim.FaultLostCAS {
			// Mirror Controller.StepLostCAS: memory applies the real CAS
			// while the frame observes failure.
			x.FaultsUsed++
			x.advance(p, memsim.Result{Val: acc.Arg1, OK: false})
		} else {
			x.advance(p, res)
		}
	}
	x.Path = append(x.Path, idx)
	return acc, res, nil
}

// Mark is one node's snapshot of the substrate: cloned frames, the
// scheduler arrays, and the high-water marks of the undo log and the
// path. Engines embed it in their own snapshot type and recycle that
// type through a Pool; the retained arrays and frame clones are the copy
// targets of the next Save into the same Mark, so the steady-state
// save/restore/release cycle allocates nothing.
type Mark struct {
	frames     []memsim.Resumable
	phase      []Phase
	pending    []memsim.Access
	rets       []memsim.Value
	kinds      []memsim.CallKind
	progress   []int
	undos      int
	path       int
	faultsUsed int
}

// Save copies the current node into m.
func (x *Exec) Save(m *Mark) {
	if len(x.Undos) > x.UndoMax {
		x.UndoMax = len(x.Undos)
	}
	m.phase = append(m.phase[:0], x.Phase...)
	m.pending = append(m.pending[:0], x.Pending...)
	m.rets = append(m.rets[:0], x.Rets...)
	m.kinds = append(m.kinds[:0], x.Kinds...)
	m.progress = append(m.progress[:0], x.Progress...)
	m.undos = len(x.Undos)
	m.path = len(x.Path)
	m.faultsUsed = x.FaultsUsed
	// Mark-owned frames never alias engine-owned frames: CloneResumableInto
	// copies content into the mark's retained clone (or makes a fresh one),
	// so further steps cannot disturb the snapshot.
	if m.frames == nil {
		m.frames = make([]memsim.Resumable, x.N)
	}
	for i, f := range x.Frames {
		m.frames[i] = memsim.CloneResumableInto(m.frames[i], f)
	}
}

// Restore winds the execution back to m: machine undos revert in reverse
// order, the scheduler arrays copy back, and the path truncates. Frames
// are re-cloned (into the current frames, reusing their allocations) so
// the mark stays pristine for further siblings.
func (x *Exec) Restore(m *Mark) {
	for i := len(x.Undos) - 1; i >= m.undos; i-- {
		x.Mach.Revert(x.Undos[i])
	}
	x.Undos = x.Undos[:m.undos]
	for i := range m.frames {
		x.Frames[i] = memsim.CloneResumableInto(x.Frames[i], m.frames[i])
	}
	copy(x.Phase, m.phase)
	copy(x.Pending, m.pending)
	copy(x.Rets, m.rets)
	copy(x.Kinds, m.kinds)
	copy(x.Progress, m.progress)
	x.Path = x.Path[:m.path]
	x.FaultsUsed = m.faultsUsed
}

// Pool is a free list of node snapshots. Hits and Misses are telemetry
// only.
type Pool[M any] struct {
	free         []*M
	Hits, Misses int
}

// Get pops a released snapshot, or returns a new zero one.
func (p *Pool[M]) Get() *M {
	if n := len(p.free); n > 0 {
		p.Hits++
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	p.Misses++
	return new(M)
}

// Put returns m once no sibling will restore from it again.
func (p *Pool[M]) Put(m *M) { p.free = append(p.free, m) }

// AppendFaultsKey appends the faults-used count under an enabled policy
// only, keeping k=0 keys byte-identical to fault-free ones.
func (x *Exec) AppendFaultsKey(b []byte) []byte {
	if x.Faults.Enabled() {
		b = binary.AppendUvarint(b, uint64(x.FaultsUsed))
	}
	return b
}

// AppendProcTail appends the key fields every process section ends with:
// script position, pending access and frame. Frames encode through
// memsim.AppendKeyFrameState, so sub-frames key by content rather than
// by (clone-dependent) heap address.
func (x *Exec) AppendProcTail(b []byte, p memsim.PID) []byte {
	b = binary.AppendUvarint(b, uint64(x.Progress[p]))
	if x.Phase[p] == Pending {
		acc := x.Pending[p]
		b = append(b, byte(acc.Op))
		b = binary.AppendUvarint(b, uint64(acc.Addr))
		b = binary.AppendVarint(b, acc.Arg1)
		b = binary.AppendVarint(b, acc.Arg2)
	}
	return memsim.AppendKeyFrameState(b, x.Frames[p])
}

// BoolBit encodes a flag as one key byte.
func BoolBit(v bool) byte {
	if v {
		return 1
	}
	return 0
}
