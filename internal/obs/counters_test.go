package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// The derived names must be unique and follow the declared rule: groups
// are consecutive runs of one event, named by the event's first word, and
// every counter's key is "<group>_<field>".
func TestCounterDeclarationsDerive(t *testing.T) {
	keys := map[string]bool{}
	var next CounterID
	for _, g := range CounterGroups {
		if g.First != next || g.End <= g.First {
			t.Fatalf("group %s covers [%d,%d), want to start at %d", g.Event, g.First, g.End, next)
		}
		if !strings.HasPrefix(g.Event, g.Name+"-") {
			t.Fatalf("group name %q is not the first word of %q", g.Name, g.Event)
		}
		for id := g.First; id < g.End; id++ {
			if id.Key() != g.Name+"_"+id.Field() || keys[id.Key()] {
				t.Fatalf("counter %d: key %q duplicated or not <group>_<field>", id, id.Key())
			}
			keys[id.Key()] = true
		}
		next = g.End
	}
	if next != NumCounters {
		t.Fatalf("groups cover %d of %d counters", next, NumCounters)
	}
	if last := CounterGroups[len(CounterGroups)-1]; last.First != TaskCounters || last.Event != "gp-stats" {
		t.Fatalf("the tuner's gp group must follow the Task's counters, got %+v", last)
	}
}

// The fleet wire form names every counter and round-trips exactly; a key
// the receiver does not know is ignored and a missing one reads zero.
func TestCountersJSONRoundTrip(t *testing.T) {
	var c Counters
	for i := range c {
		c[i] = int64(i*1000 + 7)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"prefix_snapshot_bytes":4007`) {
		t.Fatalf("wire form %s does not name counters by key", b)
	}
	var back Counters
	if err := json.Unmarshal(b, &back); err != nil || back != c {
		t.Fatalf("round trip = %v (err %v), want %v", back, err, c)
	}
	if err := json.Unmarshal([]byte(`{"cache_hits":3,"from_the_future":9}`), &back); err != nil {
		t.Fatal(err)
	}
	if back != (Counters{CacheHits: 3}) {
		t.Fatalf("partial decode = %v", back)
	}
}

// Each owner mirrors only its own range into the registry.
func TestCounterGaugesMirrorRange(t *testing.T) {
	m := NewMetrics()
	g := m.CounterGauges()
	c := Counters{CacheHits: 5, GPFits: 2}
	g.Set(&c, 0, TaskCounters)
	if got := m.Gauge("citroen_cache_hits").Value(); got != 5 {
		t.Fatalf("citroen_cache_hits = %v, want 5", got)
	}
	if got := m.Gauge(GPFits.MetricName()).Value(); got != 0 {
		t.Fatalf("task-range mirror wrote the tuner's gp_fits: %v", got)
	}
	var nilGauges *CounterGauges
	nilGauges.Set(&c, 0, NumCounters) // must not panic
}
