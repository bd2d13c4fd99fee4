// Node configuration: one validated Config struct is the single source of
// truth for every tuning knob, from the poll period down to the channel
// writers' batch size. Defaults() returns the paper's defaults, Validate
// rejects nonsense before any resource is acquired, and BindFlags maps the
// whole surface onto a flag set once — dprocd's flags, core.Config fields
// and kecho.Options can no longer drift apart.

package core

import (
	"flag"
	"fmt"
	"time"

	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/overlay"
)

// DefaultTraceSample is the default tracing rate: one monitoring event in
// 1024 carries a trace, cheap enough to leave on in production.
const DefaultTraceSample = 1024

// Defaults returns the node configuration with every knob at its built-in
// default: 1-second polling, the paper's channel sizing, one traced event
// per 1024. Callers set Name (required) and override what they need.
func Defaults() Config {
	return Config{
		PollPeriod:       dmon.DefaultPeriod,
		HistoryDepth:     dmon.HistoryDepth,
		HistoryRetention: dmon.DefaultRetention,
		FsyncEvery:       1,
		Channel:          kecho.DefaultOptions(),
		TraceSample:      DefaultTraceSample,
		AdminTimeout:     30 * time.Second,
		QueryTimeout:     2 * time.Second,
		QueryFanout:      16,
	}
}

// Validate rejects configurations that would otherwise fail obscurely at
// runtime. The zero value of every optional field is valid (it selects the
// built-in default); only actively contradictory settings error.
func (cfg *Config) Validate() error {
	if cfg.Name == "" {
		return fmt.Errorf("core: node name required")
	}
	if cfg.Padding < 0 {
		return fmt.Errorf("core: negative padding %d", cfg.Padding)
	}
	if cfg.HistoryDepth < 0 {
		return fmt.Errorf("core: negative history depth %d", cfg.HistoryDepth)
	}
	if cfg.PollPeriod < 0 {
		return fmt.Errorf("core: negative poll period %v", cfg.PollPeriod)
	}
	if cfg.Channel.InboxSize < 0 || cfg.Channel.OutboxSize < 0 {
		return fmt.Errorf("core: negative channel queue size")
	}
	if cfg.Channel.MaxBatch < 0 {
		return fmt.Errorf("core: negative channel max batch %d", cfg.Channel.MaxBatch)
	}
	if cfg.Channel.Writers < 0 {
		return fmt.Errorf("core: negative channel writers %d", cfg.Channel.Writers)
	}
	if cfg.AdminTimeout < 0 || cfg.QueryTimeout < 0 {
		return fmt.Errorf("core: negative admin/query timeout")
	}
	if cfg.QueryFanout < 0 {
		return fmt.Errorf("core: negative query fanout %d", cfg.QueryFanout)
	}
	if cfg.RelayBranching < 0 {
		return fmt.Errorf("core: negative relay branching %d", cfg.RelayBranching)
	}
	switch cfg.RelayRole {
	case "", overlay.RoleRelay:
	default:
		return fmt.Errorf("core: unknown relay role %q (want \"\" or %q)", cfg.RelayRole, overlay.RoleRelay)
	}
	return nil
}

// BindFlags registers the node's tuning surface on fs, with cfg supplying
// both the storage and the default values — call with cfg = Defaults() (plus
// any overrides), then flag-parse. Deployment-specific flags (admin socket,
// simulation, pprof) stay with the caller; everything that shapes the data
// plane lives here so there is exactly one name per knob.
func BindFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.Name, "name", cfg.Name, "cluster-unique node name")
	fs.StringVar(&cfg.RegistryAddr, "registry", cfg.RegistryAddr, "channel registry address (empty = standalone)")
	fs.DurationVar(&cfg.PollPeriod, "period", cfg.PollPeriod, "poll loop period")
	fs.IntVar(&cfg.Padding, "padding", cfg.Padding, "extra bytes per monitoring event")
	fs.IntVar(&cfg.HistoryDepth, "history-depth", cfg.HistoryDepth, "default history view size in samples")
	fs.DurationVar(&cfg.HistoryRetention, "retention", cfg.HistoryRetention, "raw history retention per metric (<0 = unbounded)")
	fs.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "directory for durable history (WAL + chunk files; empty = memory-only)")
	fs.IntVar(&cfg.FsyncEvery, "fsync", cfg.FsyncEvery, "WAL fsync cadence in records, decided per report (1 = every report, N = once N or more are unsynced, <0 = never on its own, not even at a file rotation: only at flush and close)")
	fs.DurationVar(&cfg.Channel.WriteDeadline, "write-deadline", cfg.Channel.WriteDeadline, "per-peer send deadline (<0 disables)")
	fs.IntVar(&cfg.Channel.OutboxSize, "outbox", cfg.Channel.OutboxSize, "per-peer outbound queue size in events")
	fs.IntVar(&cfg.Channel.MaxBatch, "max-batch", cfg.Channel.MaxBatch, "max events coalesced per frame by peer writers (1 disables)")
	fs.IntVar(&cfg.Channel.Writers, "writers", cfg.Channel.Writers, "reactor writer goroutines multiplexing all peer outboxes (0 = scale with GOMAXPROCS)")
	fs.Func("dispatch", `event dispatch mode: "poll" (default) or "event"`, func(s string) error {
		mode, err := kecho.ParseDispatchMode(s)
		if err != nil {
			return err
		}
		cfg.Channel.Dispatch = mode
		return nil
	})
	fs.IntVar(&cfg.RelayBranching, "relay-branching", cfg.RelayBranching, "relay-tree branching factor for the monitoring channel (0 = flat full mesh)")
	fs.StringVar(&cfg.RelayRole, "relay-role", cfg.RelayRole, `overlay role advertised to the registry: "" (leaf) or "relay" (interior-capable)`)
	fs.DurationVar(&cfg.Channel.ReconnectInterval, "reconnect", cfg.Channel.ReconnectInterval, "base interval of the mesh reconnect supervisor")
	fs.BoolVar(&cfg.Channel.DisableReconnect, "no-heal", cfg.Channel.DisableReconnect, "disable the reconnect supervisor and registry heartbeats")
	fs.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "trace one monitoring event in N (rounded up to a power of two; <=0 disables tracing)")
	fs.DurationVar(&cfg.AdminTimeout, "admin-timeout", cfg.AdminTimeout, "admin-protocol per-phase deadline on the node's admin server")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", cfg.QueryTimeout, "per-node budget of a cluster queryall fan-out")
	fs.IntVar(&cfg.QueryFanout, "query-fanout", cfg.QueryFanout, "concurrent per-node fetches of one cluster query")
}
