package vertica

import (
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// systemTable synthesizes the virtual catalog/monitor tables the connector
// reads: node addresses (S2V looks up every node IP during setup, §3.2),
// segment boundaries (the hash-ring layout V2S partitions over, §3.1.2),
// table and column metadata, and storage statistics.
func (s *Session) systemTable(name string, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	switch name {
	case "v_catalog.nodes":
		schema := types.NewSchema(
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "node_name", T: types.Varchar},
			types.Column{Name: "node_address", T: types.Varchar},
			types.Column{Name: "node_state", T: types.Varchar},
		)
		var rows []types.Row
		for _, n := range s.cluster.nodeList() {
			st := n.State()
			if st == NodeRemoved {
				// Removed nodes are no longer part of the catalog; connectors
				// enumerating nodes must not plan queries against them.
				continue
			}
			rows = append(rows, types.Row{
				types.IntValue(int64(n.ID)),
				types.StringValue(n.Name),
				types.StringValue(n.Addr),
				types.StringValue(st.String()),
			})
		}
		return rows, schema, nil

	case "v_catalog.segments":
		schema := types.NewSchema(
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "node_address", T: types.Varchar},
			types.Column{Name: "segment_lower_bound", T: types.Int64},
			types.Column{Name: "segment_upper_bound", T: types.Int64},
		)
		var rows []types.Row
		for _, t := range s.cluster.cat.Tables() {
			if !t.Def.Segmented {
				continue
			}
			// Segments follow the table's own ring, which may lag the
			// membership ring mid-drain; the rows here are authoritative for
			// planning against this table.
			segs := t.SegmentRanges()
			for i, r := range segs {
				nodeID := t.Ring[i]
				rows = append(rows, types.Row{
					types.StringValue(t.Def.Name),
					types.IntValue(int64(nodeID)),
					types.StringValue(s.cluster.node(nodeID).Addr),
					types.IntValue(int64(r.Lo)),
					types.IntValue(int64(r.Hi)),
				})
			}
		}
		return rows, schema, nil

	case "v_catalog.tables":
		schema := types.NewSchema(
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "is_segmented", T: types.Bool},
			types.Column{Name: "is_temp", T: types.Bool},
			types.Column{Name: "segment_expression", T: types.Varchar},
			types.Column{Name: "k_safety", T: types.Int64},
		)
		var rows []types.Row
		for _, t := range s.cluster.cat.Tables() {
			segExpr := ""
			if t.Def.Segmented {
				if len(t.Def.SegCols) == 0 {
					segExpr = "HASH(*)"
				} else {
					segExpr = "HASH("
					for i, c := range t.Def.SegCols {
						if i > 0 {
							segExpr += ", "
						}
						segExpr += c
					}
					segExpr += ")"
				}
			}
			rows = append(rows, types.Row{
				types.StringValue(t.Def.Name),
				types.BoolValue(t.Def.Segmented),
				types.BoolValue(t.Def.Temp),
				types.StringValue(segExpr),
				types.IntValue(int64(t.Def.KSafety)),
			})
		}
		return rows, schema, nil

	case "v_catalog.columns":
		schema := types.NewSchema(
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "column_name", T: types.Varchar},
			types.Column{Name: "data_type", T: types.Varchar},
			types.Column{Name: "ordinal_position", T: types.Int64},
		)
		var rows []types.Row
		for _, t := range s.cluster.cat.Tables() {
			for i, c := range t.Def.Schema.Cols {
				rows = append(rows, types.Row{
					types.StringValue(t.Def.Name),
					types.StringValue(c.Name),
					types.StringValue(c.T.String()),
					types.IntValue(int64(i + 1)),
				})
			}
		}
		return rows, schema, nil

	case "v_catalog.views":
		schema := types.NewSchema(
			types.Column{Name: "view_name", T: types.Varchar},
			types.Column{Name: "view_definition", T: types.Varchar},
		)
		var rows []types.Row
		for _, v := range s.cluster.cat.Views() {
			rows = append(rows, types.Row{
				types.StringValue(v.Name),
				types.StringValue(v.SelectSQL),
			})
		}
		return rows, schema, nil

	case "v_monitor.storage_containers":
		schema := types.NewSchema(
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "ros_containers", T: types.Int64},
			types.Column{Name: "visible_rows", T: types.Int64},
			types.Column{Name: "data_bytes", T: types.Int64},
		)
		var rows []types.Row
		for _, t := range s.cluster.cat.Tables() {
			for i, st := range t.Stores {
				rows = append(rows, types.Row{
					types.StringValue(t.Def.Name),
					types.IntValue(int64(t.Ring[i])),
					types.IntValue(int64(st.ContainerCount())),
					types.IntValue(int64(st.RowCount(vis))),
					types.IntValue(int64(st.DataBytes())),
				})
			}
		}
		return rows, schema, nil

	case "v_monitor.dfs_files":
		schema := types.NewSchema(
			types.Column{Name: "path", T: types.Varchar},
			types.Column{Name: "size_bytes", T: types.Int64},
		)
		var rows []types.Row
		for _, fi := range s.cluster.dfs.List("") {
			rows = append(rows, types.Row{
				types.StringValue(fi.Path),
				types.IntValue(int64(fi.Size)),
			})
		}
		return rows, schema, nil

	default:
		// The observability tables live in monitor.go.
		return s.monitorTable(name, vis)
	}
}
