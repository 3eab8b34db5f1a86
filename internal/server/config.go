package server

import (
	"fmt"
	"time"

	"github.com/ormkit/incmap/internal/fault"
)

// runtimeConfig is the hot-reloadable slice of the daemon's configuration:
// the knobs an operator tunes while the daemon runs (SIGHUP in mapserved,
// Reconfigure in-process) without dropping in-flight work. Everything else
// in Options — the store, the tracer, concurrency limits wired into
// channel capacities — stays fixed for the process lifetime.
type runtimeConfig struct {
	// queueDepth is the effective per-tenant admission bound. Tenant queue
	// channels are sized at registration; a reconfigured depth below the
	// channel capacity tightens admission immediately, one above it is
	// clamped per tenant (the channel cannot grow).
	queueDepth int
	// evolveTimeout caps one evolve's wall time, queue wait included.
	evolveTimeout time.Duration
	// defaultBudget applies to tenants registered without their own.
	defaultBudget fault.Budget
	// rollout carries the rollout engine's gate thresholds and backfill
	// tuning; per-rollout requests may tighten, never loosen past these.
	rollout RolloutConfig
}

// RolloutConfig tunes the versioned rollout engine: health-gate thresholds
// and backfill batching. The zero value selects every default.
type RolloutConfig struct {
	// CanarySamples is how many synthetic version-k states the canary gate
	// round-trips through the cross-version views before backfill starts.
	// 0 means DefaultCanarySamples.
	CanarySamples int `json:"canarySamples"`
	// BatchRows bounds one backfill batch. 0 means DefaultBatchRows.
	BatchRows int `json:"batchRows"`
	// MaxDivergence is the number of divergent canary/migration checks a
	// rollout tolerates before the gate fails. Negative disables the gate;
	// the default 0 fails on the first divergence.
	MaxDivergence int `json:"maxDivergence"`
	// MaxErrorRatePct fails the gate when the error rate of the tenant's
	// evolves since the rollout started exceeds this percentage. 0 means
	// DefaultMaxErrorRatePct; 100 effectively disables the gate.
	MaxErrorRatePct int `json:"maxErrorRatePct"`
	// BackfillRetries is how many times one backfill batch retries after a
	// fault before the rollout rolls back. 0 means DefaultBackfillRetries.
	BackfillRetries int `json:"backfillRetries"`
	// BackfillBackoff is the base retry backoff (doubled per attempt).
	// 0 means DefaultBackfillBackoff.
	BackfillBackoff time.Duration `json:"-"`
}

// Rollout defaults.
const (
	DefaultCanarySamples   = 4
	DefaultBatchRows       = 64
	DefaultMaxErrorRatePct = 50
	DefaultBackfillRetries = 3
	DefaultBackfillBackoff = 10 * time.Millisecond
)

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.CanarySamples <= 0 {
		c.CanarySamples = DefaultCanarySamples
	}
	if c.BatchRows <= 0 {
		c.BatchRows = DefaultBatchRows
	}
	if c.MaxErrorRatePct <= 0 {
		c.MaxErrorRatePct = DefaultMaxErrorRatePct
	}
	if c.BackfillRetries <= 0 {
		c.BackfillRetries = DefaultBackfillRetries
	}
	if c.BackfillBackoff <= 0 {
		c.BackfillBackoff = DefaultBackfillBackoff
	}
	return c
}

// cfg returns the current hot config snapshot.
func (s *Server) cfg() *runtimeConfig { return s.config.Load() }

// Reconfig is the wire/file form of a hot reconfiguration: nil fields keep
// their current value, so a reload file states only what it changes.
// mapserved reads one of these from its config file on SIGHUP.
type Reconfig struct {
	QueueDepth             *int   `json:"queueDepth,omitempty"`
	EvolveTimeoutMs        *int64 `json:"evolveTimeoutMs,omitempty"`
	MaxContainments        *int64 `json:"maxContainments,omitempty"`
	MaxWallTimeMs          *int64 `json:"maxWallTimeMs,omitempty"`
	RolloutCanarySamples   *int   `json:"rolloutCanarySamples,omitempty"`
	RolloutBatchRows       *int   `json:"rolloutBatchRows,omitempty"`
	RolloutMaxDivergence   *int   `json:"rolloutMaxDivergence,omitempty"`
	RolloutMaxErrorRatePct *int   `json:"rolloutMaxErrorRatePct,omitempty"`
	BackfillRetries        *int   `json:"backfillRetries,omitempty"`
	BackfillBackoffMs      *int64 `json:"backfillBackoffMs,omitempty"`
}

// ConfigStatus is the readable snapshot of the hot config, returned by
// Reconfigure and served on GET /v1/config.
type ConfigStatus struct {
	QueueDepth      int           `json:"queueDepth"`
	EvolveTimeoutMs int64         `json:"evolveTimeoutMs"`
	MaxContainments int64         `json:"maxContainments"`
	MaxWallTimeMs   int64         `json:"maxWallTimeMs"`
	Rollout         RolloutConfig `json:"rollout"`
	BackfillBackoff string        `json:"backfillBackoff"`
	Reloads         int64         `json:"reloads"`
}

// Reconfigure applies a hot reconfiguration atomically: readers see either
// the old snapshot or the new one, never a mix, and nothing in flight is
// dropped — queued evolves finish under the bounds they were admitted
// with, active rollouts pick up new gate thresholds at their next gate.
func (s *Server) Reconfigure(rc Reconfig) (*ConfigStatus, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	for {
		old := s.config.Load()
		next := *old
		if rc.QueueDepth != nil {
			next.queueDepth = *rc.QueueDepth
		}
		if rc.EvolveTimeoutMs != nil {
			next.evolveTimeout = time.Duration(*rc.EvolveTimeoutMs) * time.Millisecond
		}
		if rc.MaxContainments != nil {
			next.defaultBudget.MaxContainments = *rc.MaxContainments
		}
		if rc.MaxWallTimeMs != nil {
			next.defaultBudget.MaxWallTime = time.Duration(*rc.MaxWallTimeMs) * time.Millisecond
		}
		if rc.RolloutCanarySamples != nil {
			next.rollout.CanarySamples = *rc.RolloutCanarySamples
		}
		if rc.RolloutBatchRows != nil {
			next.rollout.BatchRows = *rc.RolloutBatchRows
		}
		if rc.RolloutMaxDivergence != nil {
			next.rollout.MaxDivergence = *rc.RolloutMaxDivergence
		}
		if rc.RolloutMaxErrorRatePct != nil {
			next.rollout.MaxErrorRatePct = *rc.RolloutMaxErrorRatePct
		}
		if rc.BackfillRetries != nil {
			next.rollout.BackfillRetries = *rc.BackfillRetries
		}
		if rc.BackfillBackoffMs != nil {
			next.rollout.BackfillBackoff = time.Duration(*rc.BackfillBackoffMs) * time.Millisecond
		}
		next.rollout = next.rollout.withDefaults()
		if s.config.CompareAndSwap(old, &next) {
			s.reloads.Add(1)
			return s.ConfigStatus(), nil
		}
	}
}

func (rc Reconfig) validate() error {
	if rc.QueueDepth != nil && *rc.QueueDepth < 1 {
		return fmt.Errorf("queueDepth must be at least 1")
	}
	if rc.EvolveTimeoutMs != nil && *rc.EvolveTimeoutMs < 1 {
		return fmt.Errorf("evolveTimeoutMs must be positive")
	}
	if rc.RolloutCanarySamples != nil && *rc.RolloutCanarySamples < 1 {
		return fmt.Errorf("rolloutCanarySamples must be at least 1")
	}
	if rc.RolloutBatchRows != nil && *rc.RolloutBatchRows < 1 {
		return fmt.Errorf("rolloutBatchRows must be at least 1")
	}
	if rc.RolloutMaxErrorRatePct != nil && (*rc.RolloutMaxErrorRatePct < 1 || *rc.RolloutMaxErrorRatePct > 100) {
		return fmt.Errorf("rolloutMaxErrorRatePct must be in [1,100]")
	}
	if rc.BackfillRetries != nil && *rc.BackfillRetries < 1 {
		return fmt.Errorf("backfillRetries must be at least 1")
	}
	if rc.BackfillBackoffMs != nil && *rc.BackfillBackoffMs < 0 {
		return fmt.Errorf("backfillBackoffMs must not be negative")
	}
	return nil
}

// ConfigStatus snapshots the hot config for callers.
func (s *Server) ConfigStatus() *ConfigStatus {
	c := s.cfg()
	return &ConfigStatus{
		QueueDepth:      c.queueDepth,
		EvolveTimeoutMs: c.evolveTimeout.Milliseconds(),
		MaxContainments: c.defaultBudget.MaxContainments,
		MaxWallTimeMs:   c.defaultBudget.MaxWallTime.Milliseconds(),
		Rollout:         c.rollout,
		BackfillBackoff: c.rollout.BackfillBackoff.String(),
		Reloads:         s.reloads.Load(),
	}
}
