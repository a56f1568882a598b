// Package hdfssource is Spark's native HDFS integration for the comparison
// baseline of §4.7.2: DataFrames written as columnar files (one or more
// block-sized files per partition, each a storage row block: schema, row
// count, one column chunk per column — the stand-in for a Parquet file) and
// read back with one Spark partition per HDFS block — the property that gives
// the HDFS read path its very high default parallelism (2240 partitions for
// the paper's dataset).
package hdfssource

import (
	"fmt"

	"vsfabric/internal/hdfs"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// Write saves a DataFrame under dir, one or more files per partition, each
// at most maxFileBytes of encoded data (0 = the filesystem's block size) so
// every file is a single block.
func Write(fs *hdfs.FS, dir string, df *spark.DataFrame, maxFileBytes int) error {
	if maxFileBytes <= 0 {
		maxFileBytes = fs.Config().BlockSize
	}
	schema := df.Schema()
	rdd, err := df.RDD()
	if err != nil {
		return err
	}
	return rdd.ForeachPartition(func(tc *spark.TaskContext, rows []types.Row) error {
		fileIdx := 0
		flush := func(batch []types.Row) error {
			if len(batch) == 0 && fileIdx > 0 {
				return nil
			}
			data, err := storage.EncodeRows(schema, batch)
			if err != nil {
				return err
			}
			path := fmt.Sprintf("%s/part-%05d-%03d.vcf", dir, tc.PartitionID, fileIdx)
			fileIdx++
			return fs.WriteFile(path, data, tc.Rec, tc.ExecNode, sim.CPURowBlockEnc)
		}
		// Cut files by the rows' wire size: a row block stores a value in
		// at most its wire size, so a file passes the cap by no more than
		// its headers and NULL bitmaps.
		var batch []types.Row
		batchBytes := 0
		for _, r := range rows {
			sz := types.WireSize(r)
			if batchBytes+sz > maxFileBytes && len(batch) > 0 {
				if err := flush(batch); err != nil {
					return err
				}
				batch, batchBytes = batch[:0], 0
			}
			batch = append(batch, r)
			batchBytes += sz
		}
		return flush(batch)
	})
}

// Read loads the files under dir as a DataFrame with one partition per file
// (= per block, since Write caps files at one block).
func Read(sc *spark.Context, fs *hdfs.FS, dir string) (*spark.DataFrame, error) {
	files := fs.List(dir + "/")
	if len(files) == 0 {
		return nil, fmt.Errorf("hdfssource: no files under %q", dir)
	}
	// Schema from the first file, read whole outside any task (no
	// simulated cost).
	head, err := fs.ReadFile(files[0], nil, "", sim.CPURowBlockDec)
	if err != nil {
		return nil, err
	}
	schema, _, err := storage.DecodeRows(head)
	if err != nil {
		return nil, fmt.Errorf("hdfssource: %s: %w", files[0], err)
	}

	rdd := spark.NewRDD(sc, len(files), func(tc *spark.TaskContext, p int) ([]types.Row, error) {
		data, err := fs.ReadFile(files[p], tc.Rec, tc.ExecNode, sim.CPURowBlockDec)
		if err != nil {
			return nil, err
		}
		s, rows, err := storage.DecodeRows(data)
		if err != nil {
			return nil, fmt.Errorf("hdfssource: %s: %w", files[p], err)
		}
		if !s.Equal(schema) {
			return nil, fmt.Errorf("hdfssource: %s schema %s != %s", files[p], s, schema)
		}
		return rows, nil
	})
	return spark.NewDataFrame(sc, schema, rdd), nil
}
