package query

import (
	"testing"

	"dproc/internal/leakcheck"
)

// TestMain fails the package's run if any goroutine its tests started is
// still running once they have all returned.
func TestMain(m *testing.M) { leakcheck.Main(m) }
