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
	"strings"

	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
)

// DefaultSourceName is the format name the connector registers under,
// matching the paper's "com.vertica.spark.datasource.DefaultSource".
const DefaultSourceName = "com.vertica.spark.datasource.DefaultSource"

// ConnOptions are the settings shared by both connector directions: where to
// connect, how parallel to be, and how hard the resilience layer tries.
// Construct V2SOptions/S2VOptions through NewV2SOptions/NewS2VOptions, which
// validate; the External Data Source API's stringly map form is parsed, over
// the same constructors, by the adapter in source.go.
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
	// to surface them in v_monitor; nil records nothing. Only settable
	// programmatically (WithObserver or DefaultSource.WithObserver) — it has
	// no stringly form.
	Observer obs.Observer
}

// validate is the one shared validator behind both constructors.
func (c *ConnOptions) validate() error {
	if c.Table == "" {
		return errors.New(`core: option "table" is required`)
	}
	if c.Host == "" {
		return errors.New(`core: option "host" is required`)
	}
	if c.NumPartitions < 0 {
		return fmt.Errorf("core: numPartitions must be positive, got %d", c.NumPartitions)
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
	if o.FailedRowsPercentTolerance < 0 || o.FailedRowsPercentTolerance > 1 {
		return fmt.Errorf("core: failedRowsPercentTolerance must be in [0,1], got %g", o.FailedRowsPercentTolerance)
	}
	switch o.CopyFormat {
	case "", "avro", "csv":
	default:
		return fmt.Errorf("core: bad copy_format %q (want avro or csv)", o.CopyFormat)
	}
	return nil
}

// Option is a functional option accepted by NewV2SOptions and NewS2VOptions.
// Shared options apply to either direction; direction-specific ones
// (WithoutLocality, WithJobName, ...) reject the wrong constructor with a
// clear error instead of being silently dropped.
type Option struct {
	v2s func(*V2SOptions) error
	s2v func(*S2VOptions) error
}

// connOption lifts a shared-field mutation into both directions.
func connOption(f func(*ConnOptions)) Option {
	return Option{
		v2s: func(o *V2SOptions) error { f(&o.ConnOptions); return nil },
		s2v: func(o *S2VOptions) error { f(&o.ConnOptions); return nil },
	}
}

// WithCredentials sets the user, password, and database name.
func WithCredentials(user, password, db string) Option {
	return connOption(func(c *ConnOptions) { c.User, c.Password, c.DB = user, password, db })
}

// WithPartitions requests n-way parallelism.
func WithPartitions(n int) Option {
	return connOption(func(c *ConnOptions) { c.NumPartitions = n })
}

// WithRetry installs a resilience policy.
func WithRetry(p resilience.Policy) Option {
	return connOption(func(c *ConnOptions) { c.Retry = p })
}

// WithObserver attaches an observer for connector spans and resilience
// events.
func WithObserver(o obs.Observer) Option {
	return connOption(func(c *ConnOptions) { c.Observer = o })
}

// WithoutLocality disables the §3.1.2 locality optimization (loads only).
func WithoutLocality() Option {
	return Option{
		v2s: func(o *V2SOptions) error { o.DisableLocality = true; return nil },
		s2v: func(*S2VOptions) error {
			return errors.New("core: disable_locality_optimization applies only to loads (V2S)")
		},
	}
}

func s2vOnly(name string, f func(*S2VOptions)) Option {
	return Option{
		v2s: func(*V2SOptions) error {
			return fmt.Errorf("core: %s applies only to saves (S2V)", name)
		},
		s2v: func(o *S2VOptions) error { f(o); return nil },
	}
}

// WithJobName names the save's row in the permanent job status table.
func WithJobName(name string) Option {
	return s2vOnly("jobName", func(o *S2VOptions) { o.JobName = name })
}

// WithTolerance sets the rejected-row budget in [0,1].
func WithTolerance(f float64) Option {
	return s2vOnly("failedRowsPercentTolerance", func(o *S2VOptions) { o.FailedRowsPercentTolerance = f })
}

// WithCopyFormat selects the task encoding, "avro" or "csv".
func WithCopyFormat(format string) Option {
	return s2vOnly("copy_format", func(o *S2VOptions) { o.CopyFormat = strings.ToLower(format) })
}

// NewV2SOptions builds validated load options.
func NewV2SOptions(table, host string, opts ...Option) (V2SOptions, error) {
	o := V2SOptions{ConnOptions: ConnOptions{Table: table, Host: host}}
	for _, op := range opts {
		if err := op.v2s(&o); err != nil {
			return o, err
		}
	}
	if err := o.ConnOptions.validate(); err != nil {
		return o, err
	}
	return o, nil
}

// NewS2VOptions builds validated save options.
func NewS2VOptions(table, host string, opts ...Option) (S2VOptions, error) {
	o := S2VOptions{ConnOptions: ConnOptions{Table: table, Host: host}, CopyFormat: "avro"}
	for _, op := range opts {
		if err := op.s2v(&o); err != nil {
			return o, err
		}
	}
	if err := o.validate(); err != nil {
		return o, err
	}
	return o, nil
}
