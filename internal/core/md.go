package core

import (
	"fmt"
	"sync"

	"vsfabric/internal/pmml"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// ModelMetadataTable records deployed models' metadata (§3.3: the model body
// lives in the internal DFS "since it is difficult to define a proper and
// generic schema for PMML models"; only name/type/size go in a table).
const ModelMetadataTable = "pmml_models"

const modelDFSPrefix = "models/"

// modelPath is where a model's PMML document lives in the DFS.
func modelPath(name string) string { return modelDFSPrefix + name + ".pmml" }

// InstallPMMLSupport is the server-side half of MD: it creates the model
// metadata table and registers the PMMLPredict scalar UDx, the generic
// evaluator for numeric-vector models. Call once per cluster, like
// installing a UDx library in Vertica.
func InstallPMMLSupport(c *vertica.Cluster) error {
	s, err := c.Connect(0)
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = s.Execute(fmt.Sprintf(
		"CREATE TABLE IF NOT EXISTS %s (model_name VARCHAR, model_type VARCHAR, size_bytes INTEGER, dfs_path VARCHAR, num_features INTEGER) UNSEGMENTED ALL NODES",
		ModelMetadataTable))
	if err != nil {
		return err
	}

	// A model's evaluator is built once per deployment: the cache holds, per
	// model name, the evaluator of the document version it was built from,
	// and a redeploy's new version replaces it on the next call. The version
	// is read before the document, so no evaluator is older than its version.
	type evaluator struct {
		version uint64
		ev      *pmml.Evaluator
	}
	var cache sync.Map // model name → evaluator
	c.RegisterUDx("PMMLPredict", func(args []types.Value, params map[string]string) (types.Value, error) {
		name := params["model_name"]
		if name == "" {
			return types.Value{}, fmt.Errorf("PMMLPredict: USING PARAMETERS model_name='...' is required")
		}
		info, err := c.DFS().Stat(modelPath(name))
		if err != nil {
			return types.Value{}, fmt.Errorf("core: model %q is not deployed: %w", name, err)
		}
		cached, ok := cache.Load(name)
		if !ok || cached.(evaluator).version != info.Version {
			doc, err := GetPMML(c, name)
			if err != nil {
				return types.Value{}, err
			}
			ev, err := pmml.NewEvaluator(doc)
			if err != nil {
				return types.Value{}, err
			}
			cached = evaluator{info.Version, ev}
			cache.Store(name, cached)
		}
		ev := cached.(evaluator).ev
		if len(args) != ev.NumFeatures() {
			return types.Value{}, fmt.Errorf("PMMLPredict: model %q takes %d features, got %d",
				name, ev.NumFeatures(), len(args))
		}
		x := make([]float64, len(args))
		for i, a := range args {
			if a.Null {
				return types.NullValue(types.Float64), nil
			}
			x[i] = a.AsFloat()
		}
		y, err := ev.Predict(x)
		if err != nil {
			return types.Value{}, err
		}
		return types.FloatValue(y), nil
	})
	return nil
}

// DeployPMMLModel stores a PMML document into the database's internal DFS
// and records its metadata, making it available to in-database scoring
// (§3.3's DeployPMMLModel()). Deploying under an existing name replaces the
// model: its metadata row is deleted and inserted in one transaction, so a
// concurrent ListModels finds the old row or the new one, never neither.
func DeployPMMLModel(c *vertica.Cluster, name string, doc *pmml.Document) error {
	data, err := pmml.Marshal(doc)
	if err != nil {
		return err
	}
	// Validate up front that the generic evaluator can score it.
	ev, err := pmml.NewEvaluator(doc)
	if err != nil {
		return fmt.Errorf("core: model %q is not scorable: %w", name, err)
	}
	path := modelPath(name)
	if err := c.DFS().Put(path, data); err != nil {
		return err
	}
	s, err := c.Connect(0)
	if err != nil {
		return err
	}
	defer s.Close()
	for _, stmt := range []string{
		"BEGIN",
		fmt.Sprintf("DELETE FROM %s WHERE model_name = '%s'", ModelMetadataTable, types.SQLEscape(name)),
		fmt.Sprintf("INSERT INTO %s VALUES ('%s', '%s', %d, '%s', %d)",
			ModelMetadataTable, types.SQLEscape(name), doc.ModelType(), len(data), path, ev.NumFeatures()),
		"COMMIT",
	} {
		if _, err := s.Execute(stmt); err != nil {
			_, _ = s.Execute("ROLLBACK")
			return err
		}
	}
	return nil
}

// GetPMML reads a deployed model back from the DFS (§3.3's GetPMML()).
func GetPMML(c *vertica.Cluster, name string) (*pmml.Document, error) {
	data, err := c.DFS().Get(modelPath(name))
	if err != nil {
		return nil, fmt.Errorf("core: model %q is not deployed: %w", name, err)
	}
	return pmml.Unmarshal(data)
}

// ModelInfo describes one deployed model.
type ModelInfo struct {
	Name        string
	Type        string
	SizeBytes   int64
	DFSPath     string
	NumFeatures int64
}

// ListModels returns the deployed models' metadata.
func ListModels(c *vertica.Cluster) ([]ModelInfo, error) {
	s, err := c.Connect(0)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Execute(fmt.Sprintf(
		"SELECT model_name, model_type, size_bytes, dfs_path, num_features FROM %s", ModelMetadataTable))
	if err != nil {
		return nil, err
	}
	out := make([]ModelInfo, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, ModelInfo{
			Name: r[0].S, Type: r[1].S, SizeBytes: r[2].I, DFSPath: r[3].S, NumFeatures: r[4].I,
		})
	}
	return out, nil
}
