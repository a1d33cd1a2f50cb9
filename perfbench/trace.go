package main

import (
	"math"
	"sort"

	"repro/internal/core"
)

// span is one interval of a pass: the set-up, an operation, a call
// into a layer of the program, or a synthetic child derived from the
// program's own telemetry (the engine's phase split, a job's stage
// times). CPU and wall offsets are seconds since the pass started.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`     // operation ID; 0 is the set-up
	Parent int     `json:"parent"` // index of the enclosing span, -1 for roots
	CPU0   float64 `json:"cpu_start_s"`
	CPU1   float64 `json:"cpu_end_s"`
	Wall0  float64 `json:"wall_start_s"`
	Wall1  float64 `json:"wall_end_s"`
}

func (s *span) cpu() float64  { return s.CPU1 - s.CPU0 }
func (s *span) wall() float64 { return s.Wall1 - s.Wall0 }

// opSample is what one operation cost.
type opSample struct {
	cpu        float64 // the timed calls only
	allocBytes uint64
	gcCycles   uint64
}

// meter times the calls a workload makes into the program's layers.
// Every call is timed on process CPU, so an operation's cost is the
// sum of its calls and harness work between them is left out. With
// tracing on, every call is also kept as a span; spans stay in memory
// until the run writes them out at exit.
type meter struct {
	traced bool
	origin stamp
	spans  []span
	open   []int // stack of open span indices (traced only)

	op       int
	opStart  stamp
	opHeap   heapSample
	opCalls  float64 // CPU of the timed calls in the current operation
	setupCPU float64
}

func newMeter(traced bool) *meter {
	return &meter{traced: traced, origin: now()}
}

func (m *meter) offsets(s stamp) (cpu, wall float64) {
	return s.cpu - m.origin.cpu, s.wall.Sub(m.origin.wall).Seconds()
}

func (m *meter) push(name string, s stamp) int {
	parent := -1
	if len(m.open) > 0 {
		parent = m.open[len(m.open)-1]
	}
	c, w := m.offsets(s)
	m.spans = append(m.spans, span{Name: name, Op: m.op, Parent: parent, CPU0: c, Wall0: w})
	m.open = append(m.open, len(m.spans)-1)
	return len(m.spans) - 1
}

// pop closes the innermost open span at e.
func (m *meter) pop(e stamp) {
	idx := m.open[len(m.open)-1]
	c, w := m.offsets(e)
	m.spans[idx].CPU1, m.spans[idx].Wall1 = c, w
	m.open = m.open[:len(m.open)-1]
}

// beginSetup starts the timed set-up of a pass. Unlike an operation,
// set-up is timed as a whole interval: everything the workload does
// before its first operation is set-up cost.
func (m *meter) beginSetup() {
	m.op = 0
	m.opStart = now()
	if m.traced {
		m.push("setup", m.opStart)
	}
}

func (m *meter) endSetup() {
	e := now()
	m.setupCPU = e.cpu - m.opStart.cpu
	if m.traced {
		m.pop(e)
	}
}

func (m *meter) beginOp(id int) {
	m.op, m.opCalls = id, 0
	m.opHeap = readHeap()
	m.opStart = now()
	if m.traced {
		m.push("op", m.opStart)
	}
}

func (m *meter) endOp() opSample {
	h := readHeap()
	if m.traced {
		m.pop(now())
	}
	return opSample{
		cpu:        m.opCalls,
		allocBytes: h.allocBytes - m.opHeap.allocBytes,
		gcCycles:   h.gcCycles - m.opHeap.gcCycles,
	}
}

// call times f as one call into the named layer and returns the
// span's index (-1 when untraced).
func (m *meter) call(name string, f func() error) (int, error) {
	s := now()
	idx := -1
	if m.traced {
		idx = m.push(name, s)
	}
	err := f()
	e := now()
	m.opCalls += e.cpu - s.cpu
	if m.traced {
		m.pop(e)
	}
	return idx, err
}

// synthetic adds children to span parent, laid end to end from its
// start, for work the program timed itself in wall seconds, and
// returns their indices (-1 for a child with no time). With
// cpuPerWall 0 the children split the parent's CPU in proportion to
// its wall time; otherwise each reported wall second is charged
// cpuPerWall CPU seconds. Either way the children never exceed the
// parent, which keeps the part none of them covers as its self time.
func (m *meter) synthetic(parent int, names []string, walls []float64, cpuPerWall float64) []int {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = -1
	}
	if parent < 0 {
		return idx
	}
	p := m.spans[parent]
	var total float64
	for _, w := range walls {
		total += w
	}
	if total <= 0 {
		return idx
	}
	rate := cpuPerWall
	if rate <= 0 {
		rate = p.cpu() / p.wall()
	}
	rate = math.Min(rate, p.cpu()/total)
	wrate := math.Min(1, p.wall()/total)
	c, w := p.CPU0, p.Wall0
	for i, name := range names {
		if walls[i] <= 0 {
			continue
		}
		dc, dw := walls[i]*rate, walls[i]*wrate
		m.spans = append(m.spans, span{
			Name: name, Op: p.Op, Parent: parent,
			CPU0: c, CPU1: c + dc, Wall0: w, Wall1: w + dw,
		})
		idx[i] = len(m.spans) - 1
		c, w = c+dc, w+dw
	}
	return idx
}

// phaseNames are the synthetic children of a core.run span, one per
// field of core.PhaseTimes.
var phaseNames = []string{"core.analyze", "core.extract", "core.embed", "core.apply", "core.legalize"}

func phaseWalls(p core.PhaseTimes) []float64 {
	return []float64{p.Analyze, p.Extract, p.Embed, p.Apply, p.Legalize}
}

// engineRun runs the engine as a core.run call and, when traced,
// splits the span by the engine's own phase timer. The phases are
// wall-clock inside the engine; they are converted at the run's own
// CPU-per-wall rate.
func (m *meter) engineRun(eng *core.Engine) (*core.Stats, error) {
	var st *core.Stats
	idx, err := m.call("core.run", func() error {
		var err error
		st, err = eng.Run()
		return err
	})
	if err == nil && m.traced {
		m.synthetic(idx, phaseNames, phaseWalls(st.Phases), 0)
	}
	return st, err
}

// selfTimes returns, for every span name, the CPU seconds of spans of
// that name minus the part their children cover, over the set-up spans
// (setup true) or over the operations' spans. Summed over all names it
// equals the total CPU of the root spans, which is what the closure
// check relies on.
func selfTimes(spans []span, setup bool) map[string]float64 {
	child := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].cpu()
		}
	}
	out := map[string]float64{}
	for i := range spans {
		if (spans[i].Op == 0) != setup {
			continue
		}
		out[spans[i].Name] += spans[i].cpu() - child[i]
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
