package smartpointer

import (
	"fmt"

	"dproc/internal/ecode"
)

// E-code stream policies: the paper notes that clients customize data
// streams "by using data filters, similar to the concept of filters
// described earlier in the context of the monitoring data distribution".
// An EcodePolicy is exactly that — the adaptation decision written in
// E-code, shipped as a string, compiled at the server, and evaluated
// against the client's monitored resource state. The program sees scalar
// globals describing the client and returns the transform to use.

// PolicySpec is the E-code environment stream policies compile against:
//
//	double cpu_load        client run-queue length
//	double cpu_share       CPU fraction one more process would get
//	double net_avail_mbps  available client bandwidth, Mbps
//	double disk_rate       client disk activity, sectors/s
//	int    FULL, DROPVEL, QUANTIZE, SUBSAMPLE2, SUBSAMPLE4,
//	       PRERENDER, RENDERSUB   transform identifiers (return one)
func PolicySpec() *ecode.EnvSpec {
	return &ecode.EnvSpec{
		Consts: map[string]int64{
			"FULL":       int64(Full),
			"DROPVEL":    int64(DropVelocity),
			"QUANTIZE":   int64(Quantize),
			"SUBSAMPLE2": int64(Subsample2),
			"SUBSAMPLE4": int64(Subsample4),
			"PRERENDER":  int64(PreRender),
			"RENDERSUB":  int64(RenderSubsample),
		},
		FloatGlobals: []string{"cpu_load", "cpu_share", "net_avail_mbps", "disk_rate"},
	}
}

// Slots of the policy env's float globals, in PolicySpec order.
const (
	policySlotLoad = iota
	policySlotShare
	policySlotNetAvail
	policySlotDiskRate
)

// EcodePolicy is a compiled stream-adaptation policy.
type EcodePolicy struct {
	filter *ecode.Filter
	vm     *ecode.VM
	env    *ecode.Env
}

// NewEcodePolicy compiles policy source. The program must return an int —
// one of the transform constants.
func NewEcodePolicy(source string) (*EcodePolicy, error) {
	// Cached: servers re-install the same policy source on every restart or
	// re-subscription wave, so an unchanged string skips the front-end.
	f, err := ecode.CompileCached(source, PolicySpec())
	if err != nil {
		return nil, fmt.Errorf("smartpointer: compiling policy: %w", err)
	}
	return &EcodePolicy{
		filter: f,
		vm:     ecode.NewVM(),
		env:    f.NewEnv(0),
	}, nil
}

// Choose evaluates the policy against a client's monitored state. An
// invalid or out-of-range result falls back to Full, mirroring d-mon's
// fail-open filter handling.
func (p *EcodePolicy) Choose(info ClientInfo) (Transform, error) {
	p.env.Floats[policySlotLoad] = info.Load
	p.env.Floats[policySlotShare] = info.CPUShare
	p.env.Floats[policySlotNetAvail] = info.AvailBps / 1e6
	p.env.Floats[policySlotDiskRate] = info.DiskSectorsPerSec
	res, err := p.filter.Run(p.vm, p.env)
	if err != nil {
		return Full, fmt.Errorf("smartpointer: policy execution: %w", err)
	}
	if res.Type != ecode.TypeInt {
		return Full, fmt.Errorf("smartpointer: policy returned %v, want int transform", res.Type)
	}
	t := Transform(res.Int)
	if t < 0 || t >= NumTransforms {
		return Full, fmt.Errorf("smartpointer: policy returned invalid transform %d", res.Int)
	}
	return t, nil
}
