package core

import (
	"strings"
	"testing"

	"vsfabric/internal/mllib"
	"vsfabric/internal/spark"
	"vsfabric/internal/vertica"
	"vsfabric/internal/workload"
)

// TestMDFullPipeline runs the complete Figure 1 loop: V2S loads training
// data out of the database, MLlib trains, the model exports to PMML, MD
// deploys it, and PMMLPredict scores in-database.
func TestMDFullPipeline(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	if err := InstallPMMLSupport(h.cluster); err != nil {
		t.Fatal(err)
	}

	// Seed IrisTable in the database.
	iris := workload.IrisRows(400, 3)
	h.sql(t, "CREATE TABLE iristable (sepal_length FLOAT, sepal_width FLOAT, petal_length FLOAT, petal_width FLOAT, species INTEGER)")
	var vals []string
	for _, r := range iris {
		vals = append(vals, "("+r[0].String()+", "+r[1].String()+", "+r[2].String()+", "+r[3].String()+", "+r[4].String()+")")
	}
	h.sql(t, "INSERT INTO iristable VALUES "+strings.Join(vals, ", "))

	// V2S: load training data into Spark.
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "iristable", 4)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var pts []mllib.LabeledPoint
	for _, r := range rows {
		pts = append(pts, mllib.LabeledPoint{
			Label:    float64(r[4].I),
			Features: mllib.Vector{r[0].F, r[1].F, r[2].F, r[3].F},
		})
	}
	model, err := mllib.TrainLogisticRegression(spark.Parallelize(h.sc, pts, 4), 200, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	// Export to PMML and deploy (MD).
	doc, err := model.ToPMML([]string{"sepal_length", "sepal_width", "petal_length", "petal_width"}, "species")
	if err != nil {
		t.Fatal(err)
	}
	if err := DeployPMMLModel(h.cluster, "regression", doc); err != nil {
		t.Fatal(err)
	}

	// The paper's §3.3 example query, verbatim shape.
	s, err := h.cluster.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute(`SELECT PMMLPredict(
		sepal_length, sepal_width,
		petal_length, petal_width
	USING PARAMETERS model_name='regression') AS pred, species FROM iristable`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 400 {
		t.Fatalf("scored %d rows", len(res.Rows))
	}
	correct := 0
	for _, r := range res.Rows {
		if int64(r[0].F) == r[1].I {
			correct++
		}
	}
	if acc := float64(correct) / 400; acc < 0.95 {
		t.Errorf("in-database accuracy = %.3f, want >= 0.95", acc)
	}

	// Metadata and DFS round trips.
	models, err := ListModels(h.cluster)
	if err != nil || len(models) != 1 {
		t.Fatalf("ListModels = %v, %v", models, err)
	}
	if models[0].Name != "regression" || models[0].Type != "logistic_regression" || models[0].NumFeatures != 4 {
		t.Errorf("metadata = %+v", models[0])
	}
	back, err := GetPMML(h.cluster, "regression")
	if err != nil {
		t.Fatal(err)
	}
	if back.ModelType() != "logistic_regression" {
		t.Errorf("GetPMML type = %q", back.ModelType())
	}
}

func TestMDRedeployReplaces(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	if err := InstallPMMLSupport(h.cluster); err != nil {
		t.Fatal(err)
	}
	lin := &mllib.LinearRegressionModel{Weights: mllib.Vector{1}, Intercept: 0}
	doc, err := lin.ToPMML([]string{"x"}, "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := DeployPMMLModel(h.cluster, "m", doc); err != nil {
		t.Fatal(err)
	}
	lin2 := &mllib.LinearRegressionModel{Weights: mllib.Vector{2, 3}, Intercept: 1}
	doc2, err := lin2.ToPMML([]string{"x", "z"}, "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := DeployPMMLModel(h.cluster, "m", doc2); err != nil {
		t.Fatal(err)
	}
	models, err := ListModels(h.cluster)
	if err != nil || len(models) != 1 {
		t.Fatalf("redeploy should replace, got %v, %v", models, err)
	}
	if models[0].NumFeatures != 2 {
		t.Errorf("metadata not updated: %+v", models[0])
	}
}

// TestMDRedeployIsAtomic: a redeploy replaces a model's metadata row in one
// transaction, so a ListModels running beside a stream of redeploys always
// finds the model exactly once.
func TestMDRedeployIsAtomic(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	if err := InstallPMMLSupport(h.cluster); err != nil {
		t.Fatal(err)
	}
	doc, err := (&mllib.LinearRegressionModel{Weights: mllib.Vector{1}}).ToPMML([]string{"x"}, "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := DeployPMMLModel(h.cluster, "m", doc); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 300; i++ {
			if err := DeployPMMLModel(h.cluster, "m", doc); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var lists, misses int
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if misses > 0 {
				t.Fatalf("%d of %d listings during redeploys found %s without exactly one model", misses, lists, ModelMetadataTable)
			}
			return
		default:
		}
		models, err := ListModels(h.cluster)
		if err != nil {
			t.Fatal(err)
		}
		if lists++; len(models) != 1 {
			misses++
		}
	}
}

// TestMDRedeployScoresNewModel: a statement after a redeploy scores the
// document deployed last, not the evaluator an earlier statement built for
// the same model name.
func TestMDRedeployScoresNewModel(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	if err := InstallPMMLSupport(h.cluster); err != nil {
		t.Fatal(err)
	}
	h.sql(t, "CREATE TABLE tt (x FLOAT)", "INSERT INTO tt VALUES (1.0)")
	s, err := h.cluster.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, weight := range []float64{1, 5, 2} {
		doc, err := (&mllib.LinearRegressionModel{Weights: mllib.Vector{weight}}).ToPMML([]string{"x"}, "y")
		if err != nil {
			t.Fatal(err)
		}
		if err := DeployPMMLModel(h.cluster, "m", doc); err != nil {
			t.Fatal(err)
		}
		res, err := s.Execute("SELECT PMMLPredict(x USING PARAMETERS model_name='m') FROM tt")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].F; got != weight {
			t.Fatalf("after deploying y = %g·x, PMMLPredict(1) = %g", weight, got)
		}
	}
}

func TestMDErrors(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	if err := InstallPMMLSupport(h.cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := GetPMML(h.cluster, "missing"); err == nil {
		t.Error("missing model should error")
	}
	s, _ := h.cluster.Connect(0)
	defer s.Close()
	h.sql(t, "CREATE TABLE tt (x FLOAT)", "INSERT INTO tt VALUES (1.0)")
	if _, err := s.Execute("SELECT PMMLPredict(x USING PARAMETERS model_name='missing') FROM tt"); err == nil {
		t.Error("scoring with missing model should error")
	}
	if _, err := s.Execute("SELECT PMMLPredict(x) FROM tt"); err == nil {
		t.Error("scoring without model_name should error")
	}

	// Deploy a model and call it with the wrong arity.
	lin := &mllib.LinearRegressionModel{Weights: mllib.Vector{1, 2}, Intercept: 0}
	doc, _ := lin.ToPMML([]string{"a", "b"}, "y")
	if err := DeployPMMLModel(h.cluster, "two", doc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("SELECT PMMLPredict(x USING PARAMETERS model_name='two') FROM tt"); err == nil {
		t.Error("wrong arity should error")
	}
}

// TestMDModelSurvivesDurableRestart: a model deployed into a durable cluster
// is listed and scores after the cluster is closed and reopened on its data
// directory, and a model deleted from the DFS before the restart stays gone.
func TestMDModelSurvivesDurableRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *vertica.Cluster {
		c, err := vertica.NewCluster(vertica.Config{Nodes: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := InstallPMMLSupport(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"CREATE TABLE tt (x FLOAT)", "INSERT INTO tt VALUES (2.0)"} {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for name, weight := range map[string]float64{"m": 3, "gone": 1} {
		doc, err := (&mllib.LinearRegressionModel{Weights: mllib.Vector{weight}}).ToPMML([]string{"x"}, "y")
		if err != nil {
			t.Fatal(err)
		}
		if err := DeployPMMLModel(c, name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DFS().Delete(modelPath("gone")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = open()
	defer c.Close()
	if c.DFS().Exists(modelPath("gone")) {
		t.Error("a model deleted before the restart is back")
	}
	s, err = c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute("SELECT PMMLPredict(x USING PARAMETERS model_name='m') FROM tt")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].F; got != 6 {
		t.Fatalf("PMMLPredict(2) with y = 3·x after a restart = %g", got)
	}
}
