//go:build soakgate

// The soakgate tag holds the acceptance gates sized for their own CI jobs,
// kept out of the main job's race-enabled run: the streaming gate here
// (stream-soak job) and the rollout soak in internal/server (rollout-soak
// job). Run with: go test -tags soakgate -run TestStreamSoakGate .
package incmap_test

import (
	"testing"

	"github.com/ormkit/incmap/internal/exec"
)

// TestStreamSoakGate runs the streaming acceptance gate at CI size: about
// 200k store rows through the chain-300 views, eight evolves concurrent.
func TestStreamSoakGate(t *testing.T) {
	checkStreamPeak(t, 300, 200_000, exec.DefaultBatchSize, 8)
}
