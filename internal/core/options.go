// Package core implements the paper's contribution: the Vertica connector
// for the Spark substrate. It provides V2S (§3.1) — parallel, data-locality-
// aware, epoch-consistent loads with filter/projection/count pushdown — S2V
// (§3.2) — exactly-once parallel saves through a five-phase staging-table
// protocol — and MD (§3.3) — PMML model deployment into the database for
// in-database scoring.
//
// The connector registers as a Spark data source under DefaultSourceName and
// is driven through the External Data Source API exactly as in Table 1 of
// the paper.
package core

import (
	"errors"
	"fmt"

	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
)

// DefaultSourceName is the format name the connector registers under,
// matching the paper's "com.vertica.spark.datasource.DefaultSource".
const DefaultSourceName = "com.vertica.spark.datasource.DefaultSource"

// ConnOptions are the settings shared by both connector directions: where to
// connect, how parallel to be, and how hard the resilience layer tries. The
// External Data Source API's option map (Table 1 of the paper) is the
// connector's one entry: source.go parses it into V2SOptions/S2VOptions key by
// key and validate checks the result.
type ConnOptions struct {
	// Table is the target table (or, for loads, a view name).
	Table string
	// Host is the address of any one cluster node; the connector discovers
	// the rest from the system catalog (§3.2: "Although the user provides
	// only a single Vertica hostname to the API, all Vertica node IPs are
	// looked up during setup").
	Host string
	// User, Password and DB are accepted for API fidelity.
	User, Password, DB string
	// NumPartitions is the requested parallelism. For V2S it defaults to 16
	// (a practical value per §4.2); for S2V it defaults to the DataFrame's
	// current partitioning.
	NumPartitions int
	// Retry configures the resilience layer every connector connection goes
	// through: failover attempts, backoff, circuit breakers, per-operation
	// deadlines. The zero value uses resilience defaults.
	Retry resilience.Policy
	// Observer receives the connector-side trace: v2s.partition and
	// s2v.phase* spans plus every resilience event (retry, backoff, breaker
	// transitions, failover). Wire a vertica.Cluster's Obs() collector here
	// to surface them in v_monitor; nil records nothing. Set by
	// DefaultSource.WithObserver — it has no option key.
	Observer obs.Observer
}

// validate is the one validator behind both directions.
func (c *ConnOptions) validate() error {
	if c.Table == "" {
		return errors.New(`core: option "table" is required`)
	}
	if c.Host == "" {
		return errors.New(`core: option "host" is required`)
	}
	return nil
}

// V2SOptions configure a load (V2S, the LOAD half of Table 1).
type V2SOptions struct {
	ConnOptions
	// DisableLocality turns off V2S's hash-ring locality (each task still
	// gets a unique range but connects to the "wrong" node), the ablation
	// for the §3.1.2 optimization. Option: disable_locality_optimization.
	DisableLocality bool
}

// S2VOptions configure a save (S2V, the SAVE half of Table 1).
type S2VOptions struct {
	ConnOptions
	// JobName names the S2V job in the permanent status table; the source
	// assigns one when empty.
	JobName string
	// FailedRowsPercentTolerance is S2V's rejected-row budget in [0,1]
	// (§3.2: "user control to specify a tolerance for the number of rows
	// rejected").
	FailedRowsPercentTolerance float64
	// CopyFormat selects the S2V task encoding: "avro" (default, §3.2.2) or
	// "csv" — the encoding ablation. Option: copy_format.
	CopyFormat string
}

func (o *S2VOptions) validate() error {
	if err := o.ConnOptions.validate(); err != nil {
		return err
	}
	if t := o.FailedRowsPercentTolerance; !(t >= 0 && t <= 1) { // NaN fails too
		return fmt.Errorf("core: failedRowsPercentTolerance must be in [0,1], got %g", o.FailedRowsPercentTolerance)
	}
	switch o.CopyFormat {
	case "", "avro", "csv":
	default:
		return fmt.Errorf("core: bad copy_format %q (want avro or csv)", o.CopyFormat)
	}
	return nil
}
