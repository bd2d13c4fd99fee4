package metrics

import (
	"strings"
	"testing"
)

func TestHealthRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("channel", "dproc.monitoring", "peers").Store(2)
	r.Counter("channel", "dproc.monitoring", "reconnects").Store(3)
	r.Counter("channel", "dproc.monitoring", "deadline_drops").Store(1)
	r.Counter("channel", "dproc.monitoring", "queue_drops").Store(4)
	r.Counter("channel", "dproc.monitoring", "batches_sent").Store(7)
	r.Counter("channel", "dproc.control", "peers").Store(2)
	r.Counter("channel", "dproc.control", "reconnects").Store(1)
	r.Counter("channel", "dproc.control", "queue_drops").Store(0)
	r.Counter("registry", "", "dials").Store(1)
	r.Counter("registry", "", "heartbeats").Store(9)
	r.Counter("registry", "", "rejoins").Store(2)
	// Distributions must not leak into the health view.
	r.Distribution("obs", "", "filter_run", "ns", nil)

	h := NewHealth("alan", r)
	out := h.Render()
	for _, want := range []string{
		"node alan\n",
		"channel dproc.monitoring peers 2\n",
		"channel dproc.monitoring reconnects 3\n",
		"channel dproc.monitoring deadline_drops 1\n",
		"channel dproc.monitoring queue_drops 4\n",
		"channel dproc.monitoring batches_sent 7\n",
		"channel dproc.control queue_drops 0\n",
		"channel dproc.control reconnects 1\n",
		"registry dials 1\n",
		"registry heartbeats 9\n",
		"registry rejoins 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "filter_run") {
		t.Fatalf("Render leaked a distribution into the health view:\n%s", out)
	}
}

func TestHealthNilRegistry(t *testing.T) {
	h := NewHealth("solo", nil)
	if got := h.Render(); got != "node solo\n" {
		t.Fatalf("Render = %q, want node line only", got)
	}
}
