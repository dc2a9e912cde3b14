package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CounterID indexes one work counter in a Counters set.
type CounterID int

// The counter set, in journal order. Each counter's journal event and field
// are declared in counterDefs below; everything else (journal events,
// run-end keys, metric names, fleet sums, reports) is derived from that row.
// Counters before TaskCounters are reported by the Task's evaluator; the gp
// group after it is counted by the tuner itself.
const (
	CacheHits CounterID = iota
	CacheMisses
	PrefixSavedPasses
	PrefixReplayedPasses
	PrefixSnapshotBytes
	PrefixEvictions
	CowShared
	CowMaterialized
	EnvIRCloneCow
	EnvIRCloneMaterialized
	EnvIRCloneSlabFuncs
	EnvIRCloneStrayInstrs
	EnvIRAnalysisHits
	EnvIRAnalysisMisses
	EnvMachinePoolGets
	EnvMachinePoolNews
	EnvPassesPoolGets
	EnvPassesPoolNews
	BcLoweredFuncs
	BcBytecodeBytes
	BcFusedSites
	BcSuperHits
	BcCodeHits
	BcCodeMisses
	GPFits
	GPAppends
	NumCounters

	// TaskCounters is the number of counters a Task reports.
	TaskCounters = GPFits
)

// counterDefs declares each counter: the journal event of its group and its
// field in that event. Consecutive counters sharing an event form a group.
// A field with the "env_" prefix is an execution-environment counter
// (process-global, scheduling-dependent): canonical comparison strips it,
// and run-end summaries and text views leave it out.
var counterDefs = [NumCounters]struct{ event, field string }{
	CacheHits:              {"cache-stats", "hits"},
	CacheMisses:            {"cache-stats", "misses"},
	PrefixSavedPasses:      {"prefix-cache-stats", "saved_passes"},
	PrefixReplayedPasses:   {"prefix-cache-stats", "replayed_passes"},
	PrefixSnapshotBytes:    {"prefix-cache-stats", "snapshot_bytes"},
	PrefixEvictions:        {"prefix-cache-stats", "evictions"},
	CowShared:              {"cow-stats", "shared"},
	CowMaterialized:        {"cow-stats", "materialized"},
	EnvIRCloneCow:          {"cow-stats", "env_ir_clone_cow"},
	EnvIRCloneMaterialized: {"cow-stats", "env_ir_clone_materialized"},
	EnvIRCloneSlabFuncs:    {"cow-stats", "env_ir_clone_slab_funcs"},
	EnvIRCloneStrayInstrs:  {"cow-stats", "env_ir_clone_stray_instrs"},
	EnvIRAnalysisHits:      {"cow-stats", "env_ir_analysis_hits"},
	EnvIRAnalysisMisses:    {"cow-stats", "env_ir_analysis_misses"},
	EnvMachinePoolGets:     {"cow-stats", "env_machine_pool_gets"},
	EnvMachinePoolNews:     {"cow-stats", "env_machine_pool_news"},
	EnvPassesPoolGets:      {"cow-stats", "env_passes_pool_gets"},
	EnvPassesPoolNews:      {"cow-stats", "env_passes_pool_news"},
	BcLoweredFuncs:         {"bc-stats", "lowered_funcs"},
	BcBytecodeBytes:        {"bc-stats", "bytecode_bytes"},
	BcFusedSites:           {"bc-stats", "fused_sites"},
	BcSuperHits:            {"bc-stats", "super_hits"},
	BcCodeHits:             {"bc-stats", "code_hits"},
	BcCodeMisses:           {"bc-stats", "code_misses"},
	GPFits:                 {"gp-stats", "fits"},
	GPAppends:              {"gp-stats", "appends"},
}

// CounterGroup is the run of counters one journal event carries.
type CounterGroup struct {
	Event string // journal event type, e.g. "prefix-cache-stats"
	// Name is the event type's first word ("prefix"): the prefix of the
	// group's run-end keys and metric names.
	Name       string
	First, End CounterID // the group's counters are [First, End)
}

// CounterGroups lists the groups in set order, which is also the order the
// tuner journals them after each measurement. counterKeys holds each
// counter's "<group>_<field>" key.
var CounterGroups, counterKeys = deriveCounters()

func deriveCounters() (groups []CounterGroup, keys [NumCounters]string) {
	for i, d := range counterDefs {
		if d.event == "" {
			panic(fmt.Sprintf("obs: counter %d has no declaration", i))
		}
		name, _, _ := strings.Cut(d.event, "-")
		if n := len(groups); n == 0 || groups[n-1].Event != d.event {
			groups = append(groups, CounterGroup{Event: d.event, Name: name, First: CounterID(i)})
		}
		groups[len(groups)-1].End = CounterID(i + 1)
		keys[i] = name + "_" + d.field
	}
	return groups, keys
}

// Field is the counter's field name in its group's journal event.
func (c CounterID) Field() string { return counterDefs[c].field }

// Env reports whether c is an execution-environment ("env_") counter.
func (c CounterID) Env() bool { return strings.HasPrefix(counterDefs[c].field, "env_") }

// Key is "<group>_<field>", e.g. "prefix_saved_passes": the counter's
// run-end summary key and fleet wire key.
func (c CounterID) Key() string { return counterKeys[c] }

// MetricName is the registry gauge mirroring the counter: "citroen_" + Key.
func (c CounterID) MetricName() string { return "citroen_" + counterKeys[c] }

// counterGroupOf returns the group journaled as event type typ.
func counterGroupOf(typ string) (CounterGroup, bool) {
	for _, g := range CounterGroups {
		if g.Event == typ {
			return g, true
		}
	}
	return CounterGroup{}, false
}

// Counters is one value of the counter set, indexed by CounterID. The zero
// value is an all-zero set; it is plain data, safe to copy.
type Counters [NumCounters]int64

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Sub returns c - o, counter-wise.
func (c Counters) Sub(o Counters) Counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// fields returns g's counters keyed by journal field name.
func (c *Counters) fields(g CounterGroup) map[string]any {
	f := make(map[string]any, g.End-g.First)
	for i := g.First; i < g.End; i++ {
		f[i.Field()] = c[i]
	}
	return f
}

// ReadEvent loads the counters carried by a counter-group event into c,
// returning its group; ok is false for any other event type. Fields a
// canonicalized journal stripped read as zero.
func (c *Counters) ReadEvent(e *Event) (g CounterGroup, ok bool) {
	g, ok = counterGroupOf(e.Type)
	for i := g.First; i < g.End; i++ {
		c[i] = int64(FieldFloat(e.Fields, i.Field()))
	}
	return g, ok
}

// format renders g's canonical counters as "field value, ...".
func (c *Counters) format(g CounterGroup) string {
	var b strings.Builder
	for i := g.First; i < g.End; i++ {
		if i.Env() {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", i.Field(), c[i])
	}
	return b.String()
}

// Write prints one line per group: its journal event type, then its
// canonical counters.
func (c *Counters) Write(w io.Writer, indent string) {
	for _, g := range CounterGroups {
		fmt.Fprintf(w, "%s%-19s %s\n", indent, g.Event, c.format(g))
	}
}

// MarshalJSON encodes the set as an object keyed by CounterID.Key, so the
// fleet wire format names every counter instead of relying on positions.
func (c Counters) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumCounters)
	for i, v := range c {
		m[CounterID(i).Key()] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the MarshalJSON form; absent keys read as zero.
func (c *Counters) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for i := range c {
		c[i] = m[CounterID(i).Key()]
	}
	return nil
}

// CounterGauges mirrors a Counters set into a metrics registry, one gauge
// per counter named CounterID.MetricName. A nil *CounterGauges ignores Set.
type CounterGauges [NumCounters]*Gauge

// CounterGauges resolves (creating) the registry's counter-set gauges.
func (m *Metrics) CounterGauges() *CounterGauges {
	var g CounterGauges
	for i := range g {
		g[i] = m.Gauge(CounterID(i).MetricName())
	}
	return &g
}

// Set copies counters [from, to) of c into their gauges. Each owner of part
// of the set mirrors only its own range, so owners never overwrite each
// other's values.
func (g *CounterGauges) Set(c *Counters, from, to CounterID) {
	if g == nil {
		return
	}
	for i := from; i < to; i++ {
		g[i].Set(float64(c[i]))
	}
}
