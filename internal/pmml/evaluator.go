package pmml

import (
	"fmt"
	"math"
)

// Evaluator is the generic numeric-vector-in, number-out scorer the paper's
// §3.3 describes: "a generic model evaluator for models whose input is a
// numeric vector and the output is a number (e.g., logistic regression,
// k-means, etc)".
type Evaluator struct {
	doc    *Document
	fields []string
	score  func(x []float64) (float64, error)
}

// NewEvaluator compiles a document into a scorer.
func NewEvaluator(d *Document) (*Evaluator, error) {
	e := &Evaluator{doc: d, fields: d.ActiveFields()}
	switch {
	case d.Regression != nil:
		fn, err := compileRegression(d.Regression, e.fields)
		if err != nil {
			return nil, err
		}
		e.score = fn
	case d.Clustering != nil:
		fn, err := compileClustering(d.Clustering, len(e.fields))
		if err != nil {
			return nil, err
		}
		e.score = fn
	default:
		return nil, fmt.Errorf("pmml: no supported model in document")
	}
	return e, nil
}

// NumFeatures returns the input vector width.
func (e *Evaluator) NumFeatures() int { return len(e.fields) }

// Predict scores one feature vector: a real value for regression, the
// predicted class (0/1) for logistic classification, and the nearest
// cluster index for k-means.
func (e *Evaluator) Predict(x []float64) (float64, error) {
	if len(x) != len(e.fields) {
		return 0, fmt.Errorf("pmml: model takes %d features, got %d", len(e.fields), len(x))
	}
	return e.score(x)
}

func linearTerm(t RegressionTable, fields []string, x []float64) (float64, error) {
	z := t.Intercept
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		idx[f] = i
	}
	for _, p := range t.Predictors {
		i, ok := idx[p.Name]
		if !ok {
			return 0, fmt.Errorf("pmml: predictor %q not among active fields %v", p.Name, fields)
		}
		z += p.Coefficient * x[i]
	}
	return z, nil
}

func compileRegression(m *RegressionModel, fields []string) (func([]float64) (float64, error), error) {
	if len(m.Tables) == 0 {
		return nil, fmt.Errorf("pmml: regression model has no tables")
	}
	switch m.FunctionName {
	case "regression":
		t := m.Tables[0]
		return func(x []float64) (float64, error) {
			return linearTerm(t, fields, x)
		}, nil
	case "classification":
		// Spark exports binary logistic regression as two tables; the one
		// with predictors scores category "1".
		active := m.Tables[0]
		for _, t := range m.Tables {
			if len(t.Predictors) > 0 {
				active = t
				break
			}
		}
		return func(x []float64) (float64, error) {
			z, err := linearTerm(active, fields, x)
			if err != nil {
				return 0, err
			}
			p := 1.0 / (1.0 + math.Exp(-z))
			if p >= 0.5 {
				return 1, nil
			}
			return 0, nil
		}, nil
	default:
		return nil, fmt.Errorf("pmml: unsupported regression functionName %q", m.FunctionName)
	}
}

func compileClustering(m *ClusteringModel, nFields int) (func([]float64) (float64, error), error) {
	if len(m.Clusters) == 0 {
		return nil, fmt.Errorf("pmml: clustering model has no clusters")
	}
	centers := make([][]float64, len(m.Clusters))
	for i, c := range m.Clusters {
		vals, err := c.Array.Values()
		if err != nil {
			return nil, err
		}
		if len(vals) != nFields {
			return nil, fmt.Errorf("pmml: cluster %d has %d dims, model has %d fields", i, len(vals), nFields)
		}
		centers[i] = vals
	}
	return func(x []float64) (float64, error) {
		best, bestD := 0, math.Inf(1)
		for i, c := range centers {
			d := 0.0
			for j := range c {
				diff := x[j] - c[j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		return float64(best), nil
	}, nil
}
