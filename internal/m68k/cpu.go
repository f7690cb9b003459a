package m68k

import "fmt"

// DeviceBus is the memory-mapped device window (addresses at or above
// DeviceBase). PASM maps the interconnection-network transfer
// registers and the SIMD instruction space here.
//
// A Load or Store may refuse to complete (ok=false), which makes the
// CPU return StatusBlocked with the instruction un-executed; the
// engine advances the CPU's clock and retries. A successful access
// returns any extra device cycles beyond the standard bus access
// already included in the instruction's base time.
type DeviceBus interface {
	Load(addr uint32, sz Size, clock int64) (val uint32, extra int64, ok bool)
	Store(addr uint32, sz Size, val uint32, clock int64) (extra int64, ok bool)
}

// Status is the result of executing one instruction.
type Status uint8

// CPU step results.
const (
	StatusOK       Status = iota
	StatusHalted          // HALT executed (or already halted)
	StatusBlocked         // device access refused; instruction not executed
	StatusBcast           // MC executed BCAST; see LastBcast
	StatusSetMask         // MC executed SETMASK; see LastMask
	StatusSIMDJump        // PE jumped into the SIMD instruction space (MIMD -> SIMD mode switch)
	StatusError           // program error; see Err
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusHalted:
		return "halted"
	case StatusBlocked:
		return "blocked"
	case StatusBcast:
		return "bcast"
	case StatusSetMask:
		return "setmask"
	case StatusSIMDJump:
		return "simdjump"
	default:
		return "error"
	}
}

// BlockInfo describes the device access a blocked CPU is waiting on.
type BlockInfo struct {
	Addr   uint32
	Size   Size
	IsLoad bool
}

// CPU is one MC68000 core: either a PASM PE processor or an MC
// processor. The zero value is not usable; construct with NewCPU.
type CPU struct {
	D [8]uint32 // data registers
	A [8]uint32 // address registers (A7 = stack pointer)
	// Condition codes.
	X, N, Z, V, C bool

	PC    int   // instruction index into Prog.Instrs
	Clock int64 // cycles elapsed

	Prog *Program
	Mem  *Memory
	Dev  DeviceBus

	// FetchFromMem charges instruction-word fetches to Mem (wait
	// states + refresh). True for MIMD/SISD execution from PE main
	// memory; false when instructions arrive from the Fetch Unit
	// queue (SIMD broadcast) whose static RAM has no extra wait.
	FetchFromMem bool

	// FixedMulCycles, when positive, replaces the data-dependent MULU
	// time (38 + 2*ones) with a constant — an ablation knob that
	// removes the paper's non-deterministic instruction times so their
	// effect can be isolated. Zero means faithful behaviour.
	FixedMulCycles int64

	// DisableExecTable forces the dynamic reference path: dispatch
	// function and static cycle cost are recomputed on every step
	// instead of read from the program's pre-resolved execution table.
	// A verification knob — the equivalence tests run both paths
	// against each other; production callers leave it false.
	DisableExecTable bool

	// Trace, when non-nil, is called after every committed instruction
	// with the instruction, the PC it executed at, the clock after it,
	// and its cycle cost. Used by the trace package; nil costs nothing.
	Trace func(in *Instr, pc int, clock, cycles int64)

	// Regions accumulates cycles per accounting region.
	Regions [NumRegions]int64
	// InstrCount counts executed instructions.
	InstrCount int64

	Halted    bool
	Err       error
	LastBlock BlockInfo
	// lastLoadWasDev guards against device-to-device moves, which
	// could not be retried safely after a blocked store (the device
	// read is consuming).
	lastLoadWasDev bool
	// LastBcast is the block range of the most recent BCAST.
	LastBcast BlockRange
	// LastMask is the value of the most recent SETMASK.
	LastMask uint32

	pend  [2]pendInc
	npend int

	// tab is the program's execution table, cached on first Step.
	tab []execEntry
	// sup is the program's superinstruction table, cached on first
	// runSuper/ExecLockstep.
	sup []superOp
}

type pendInc struct {
	reg   uint8
	delta int32
}

// NewCPU returns a CPU executing prog against mem.
func NewCPU(prog *Program, mem *Memory) *CPU {
	return &CPU{Prog: prog, Mem: mem}
}

// Reset restores registers, flags, clock and counters; the program,
// memory and configuration are kept.
func (c *CPU) Reset() {
	c.D = [8]uint32{}
	c.A = [8]uint32{}
	c.X, c.N, c.Z, c.V, c.C = false, false, false, false, false
	c.PC = 0
	c.Clock = 0
	c.Regions = [NumRegions]int64{}
	c.InstrCount = 0
	c.Halted = false
	c.Err = nil
	c.npend = 0
}

// Step executes one instruction, fetching it at the current PC and
// charging DRAM fetch penalties if FetchFromMem is set. The hot path
// reads the instruction's pre-resolved dispatch function, static cycle
// cost, and fetch word count from the program's execution table; the
// inner loop is an index, a function call, and a cycle add.
func (c *CPU) Step() Status {
	if c.Halted {
		return StatusHalted
	}
	if c.Err != nil {
		return StatusError
	}
	if c.PC < 0 || c.PC >= len(c.Prog.Instrs) {
		c.Err = fmt.Errorf("m68k: PC %d outside program (%d instructions)", c.PC, len(c.Prog.Instrs))
		return StatusError
	}
	in := &c.Prog.Instrs[c.PC]
	if c.DisableExecTable {
		fetch := int64(0)
		if c.FetchFromMem {
			fetch = c.Mem.Penalty(c.Clock, int64(in.Words))
		}
		return c.exec(in, fetch)
	}
	if c.tab == nil {
		c.tab = c.Prog.table()
	}
	e := &c.tab[c.PC]
	fetch := int64(0)
	if c.FetchFromMem {
		fetch = c.Mem.Penalty(c.Clock, e.words)
	}
	c.lastLoadWasDev = false
	return e.fn(c, in, e.base+fetch, fetch, c.PC+1)
}

// ExecLockstep executes broadcast instruction idx, released by the
// Fetch Unit at release, on each CPU of cpus in order: one PASM SIMD
// group's lockstep step. Every CPU must run the same Program with the
// same tier knobs; the tier is chosen once, from cpus[0]. Each CPU
// first waits for the release (the gap from its request clock is
// charged to the instruction's region), then executes the instruction
// with no fetch penalty (the queue is static RAM) and its own PC as the
// trace PC; a halted CPU only waits. The step stops at the first CPU
// that neither completes nor is halted and returns its status and
// position k; cpus[k+1:] have not waited or executed yet, so the caller
// records that CPU and resumes after it. maxClock is the latest clock
// among the CPUs stepped (-1 for none): with StatusOK, the group's
// next request time.
func ExecLockstep(cpus []*CPU, idx int, release int64) (maxClock int64, st Status, k int) {
	maxClock = -1
	if len(cpus) == 0 {
		return maxClock, StatusOK, 0
	}
	c0 := cpus[0]
	in := &c0.Prog.Instrs[idx]
	var op *superOp
	if !c0.DisableExecTable {
		if c0.sup == nil {
			c0.sup = c0.Prog.super()
		}
		op = &c0.sup[idx]
	}
	for k, c := range cpus {
		if wait := release - c.Clock; wait > 0 {
			c.Regions[in.Region] += wait
			c.Clock = release
		}
		switch {
		case c.Halted:
			st = StatusOK
		case c.Err != nil:
			st = StatusError
		case op != nil:
			st = c.execSuperOp(op, c.PC, 0, c.PC+1)
		default:
			st = c.exec(in, 0)
		}
		if st != StatusOK {
			return maxClock, st, k
		}
		if c.Clock > maxClock {
			maxClock = c.Clock
		}
	}
	return maxClock, StatusOK, len(cpus)
}

// Run executes up to maxSteps instructions, stopping early on any
// non-OK status. It returns the last status (StatusOK means the step
// budget was exhausted with the program still running). Execution goes
// through the superinstruction engine unless DisableExecTable selects
// the reference path; both are instruction-for-instruction equivalent.
func (c *CPU) Run(maxSteps int64) Status {
	if !c.DisableExecTable {
		return c.runSuper(maxSteps)
	}
	for i := int64(0); i < maxSteps; i++ {
		if st := c.Step(); st != StatusOK {
			return st
		}
	}
	return StatusOK
}

// errf records a program error.
func (c *CPU) errf(in *Instr, format string, args ...any) Status {
	c.Err = fmt.Errorf("m68k: line %d (%s): %s", in.Line, in.Op, fmt.Sprintf(format, args...))
	c.npend = 0
	return StatusError
}

// effective-address helpers -------------------------------------------

// curA returns An with pending post-inc/pre-dec adjustments applied.
func (c *CPU) curA(reg uint8) uint32 {
	v := c.A[reg]
	for i := 0; i < c.npend; i++ {
		if c.pend[i].reg == reg {
			v = uint32(int64(v) + int64(c.pend[i].delta))
		}
	}
	return v
}

func (c *CPU) addPend(reg uint8, delta int32) {
	if c.npend < len(c.pend) {
		c.pend[c.npend] = pendInc{reg, delta}
		c.npend++
	}
}

func (c *CPU) commitPend() {
	for i := 0; i < c.npend; i++ {
		p := c.pend[i]
		c.A[p.reg] = uint32(int64(c.A[p.reg]) + int64(p.delta))
	}
	c.npend = 0
}

// incBytes is the post-inc/pre-dec step: operand size, except byte
// accesses through A7 keep the stack word aligned.
func incBytes(reg uint8, sz Size) int32 {
	b := int32(sz.Bytes())
	if sz == Byte && reg == 7 {
		b = 2
	}
	return b
}

// ea resolves a memory operand to an address, registering pending
// register adjustments (committed only when the instruction succeeds).
func (c *CPU) ea(o Operand, sz Size) uint32 {
	switch o.Mode {
	case ModeIndirect:
		return c.curA(o.Reg)
	case ModePostInc:
		a := c.curA(o.Reg)
		c.addPend(o.Reg, incBytes(o.Reg, sz))
		return a
	case ModePreDec:
		c.addPend(o.Reg, -incBytes(o.Reg, sz))
		return c.curA(o.Reg)
	case ModeDisp:
		return uint32(int64(c.curA(o.Reg)) + int64(o.Val))
	case ModeAbs:
		return uint32(o.Val)
	}
	return 0
}

// operand access -------------------------------------------------------

// opRead reads an operand value (masked to size). blocked=true means a
// device refused; the caller must bail without side effects.
func (c *CPU) opRead(o Operand, sz Size, cycles *int64) (val uint32, blocked bool, err error) {
	switch o.Mode {
	case ModeDataReg:
		return mask(c.D[o.Reg], sz), false, nil
	case ModeAddrReg:
		return mask(c.A[o.Reg], sz), false, nil
	case ModeImm:
		return mask(uint32(o.Val), sz), false, nil
	case ModeNone:
		return 0, false, nil
	}
	addr := c.ea(o, sz)
	if addr >= DeviceBase {
		if c.Dev == nil {
			return 0, false, fmt.Errorf("device access at $%X with no device bus", addr)
		}
		v, extra, ok := c.Dev.Load(addr, sz, c.Clock)
		if !ok {
			c.LastBlock = BlockInfo{Addr: addr, Size: sz, IsLoad: true}
			return 0, true, nil
		}
		c.lastLoadWasDev = true
		*cycles += extra
		return mask(v, sz), false, nil
	}
	v, err := c.Mem.Read(addr, sz)
	if err != nil {
		return 0, false, err
	}
	acc := int64(1)
	if sz == Long {
		acc = 2
	}
	*cycles += c.Mem.Penalty(c.Clock, acc)
	return v, false, nil
}

// opWrite writes a value to an operand destination.
func (c *CPU) opWrite(o Operand, sz Size, val uint32, cycles *int64) (blocked bool, err error) {
	switch o.Mode {
	case ModeDataReg:
		c.D[o.Reg] = merge(c.D[o.Reg], val, sz)
		return false, nil
	case ModeAddrReg:
		c.A[o.Reg] = signExtTo32(val, sz)
		return false, nil
	}
	addr := c.ea(o, sz)
	if addr >= DeviceBase {
		if c.Dev == nil {
			return false, fmt.Errorf("device access at $%X with no device bus", addr)
		}
		if c.lastLoadWasDev {
			return false, fmt.Errorf("device-to-device move at $%X cannot be retried safely", addr)
		}
		extra, ok := c.Dev.Store(addr, sz, mask(val, sz), c.Clock)
		if !ok {
			c.LastBlock = BlockInfo{Addr: addr, Size: sz, IsLoad: false}
			return true, nil
		}
		*cycles += extra
		return false, nil
	}
	if err := c.Mem.Write(addr, sz, mask(val, sz)); err != nil {
		return false, err
	}
	acc := int64(1)
	if sz == Long {
		acc = 2
	}
	*cycles += c.Mem.Penalty(c.Clock, acc)
	return false, nil
}

// value helpers --------------------------------------------------------

func mask(v uint32, sz Size) uint32 {
	switch sz {
	case Byte:
		return v & 0xFF
	case Word:
		return v & 0xFFFF
	default:
		return v
	}
}

// merge stores a sized value into the low part of a register.
func merge(old, v uint32, sz Size) uint32 {
	switch sz {
	case Byte:
		return old&^uint32(0xFF) | v&0xFF
	case Word:
		return old&^uint32(0xFFFF) | v&0xFFFF
	default:
		return v
	}
}

func signExtTo32(v uint32, sz Size) uint32 {
	switch sz {
	case Byte:
		return uint32(int32(int8(v)))
	case Word:
		return uint32(int32(int16(v)))
	default:
		return v
	}
}

func signBit(sz Size) uint32 {
	switch sz {
	case Byte:
		return 0x80
	case Word:
		return 0x8000
	default:
		return 0x80000000
	}
}

// flag computation (staged: callers apply the returned flags only when
// the instruction is certain to complete).

type flags struct {
	n, z, v, cc bool
	setX        bool
	x           bool
}

func nzFlags(v uint32, sz Size) flags {
	return flags{n: v&signBit(sz) != 0, z: mask(v, sz) == 0}
}

func addFlags(a, b, r uint32, sz Size) flags {
	sb := signBit(sz)
	f := nzFlags(r, sz)
	f.v = (a&sb == b&sb) && (r&sb != a&sb)
	f.cc = uint64(mask(a, sz))+uint64(mask(b, sz)) > uint64(mask(^uint32(0), sz))
	f.setX, f.x = true, f.cc
	return f
}

func subFlags(dst, src, r uint32, sz Size) flags {
	sb := signBit(sz)
	f := nzFlags(r, sz)
	f.v = (dst&sb != src&sb) && (r&sb == src&sb)
	f.cc = mask(src, sz) > mask(dst, sz)
	f.setX, f.x = true, f.cc
	return f
}

func (c *CPU) applyFlags(f flags) {
	c.N, c.Z, c.V, c.C = f.n, f.z, f.v, f.cc
	if f.setX {
		c.X = f.x
	}
}

// condTrue evaluates a branch condition against the flags.
func (c *CPU) condTrue(cc Cond) bool {
	switch cc {
	case CondT:
		return true
	case CondF:
		return false
	case CondEQ:
		return c.Z
	case CondNE:
		return !c.Z
	case CondCS:
		return c.C
	case CondCC:
		return !c.C
	case CondLT:
		return c.N != c.V
	case CondGE:
		return c.N == c.V
	case CondLE:
		return c.Z || c.N != c.V
	case CondGT:
		return !c.Z && c.N == c.V
	case CondHI:
		return !c.C && !c.Z
	case CondLS:
		return c.C || c.Z
	case CondMI:
		return c.N
	case CondPL:
		return !c.N
	case CondVS:
		return c.V
	case CondVC:
		return !c.V
	}
	return false
}

// commit finalizes a successful instruction.
func (c *CPU) commit(in *Instr, cycles int64, nextPC int) Status {
	c.commitPend()
	c.Clock += cycles
	c.Regions[in.Region] += cycles
	c.InstrCount++
	pc := c.PC
	c.PC = nextPC
	if c.Trace != nil {
		c.Trace(in, pc, c.Clock, cycles)
	}
	return StatusOK
}
