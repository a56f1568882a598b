// Package avro implements the subset of Apache Avro the connector uses to
// encode task data for S2V bulk loads (§3.2.2): the binary encoding of
// records of nullable primitives, and Object Container Files with the null
// and deflate codecs. The paper picks Avro because it is binary, needs no
// delimiter, and compresses — all three properties hold here.
//
// The writer encodes records straight from rows into a block buffer; the
// reader decodes a block straight into column vectors (ReadBlock), which is
// how COPY loads them, and boxes rows only for a caller that asks for rows
// (ReadAll).
package avro

import (
	"encoding/json"
	"fmt"

	"vsfabric/internal/types"
)

// Field is one record field: a nullable primitive.
type Field struct {
	Name string
	Type types.Type
}

// Schema is an Avro record schema of nullable primitive fields.
type Schema struct {
	Name   string
	Fields []Field
}

// FromTypes converts an engine schema into an Avro record schema.
func FromTypes(s types.Schema) Schema {
	out := Schema{Name: "row"}
	for _, c := range s.Cols {
		out.Fields = append(out.Fields, Field{Name: c.Name, Type: c.T})
	}
	return out
}

// ToTypes converts back to an engine schema.
func (s Schema) ToTypes() types.Schema {
	var out types.Schema
	for _, f := range s.Fields {
		out.Cols = append(out.Cols, types.Column{Name: f.Name, T: f.Type})
	}
	return out
}

func avroPrimitive(t types.Type) (string, error) {
	switch t {
	case types.Int64:
		return "long", nil
	case types.Float64:
		return "double", nil
	case types.Varchar:
		return "string", nil
	case types.Bool:
		return "boolean", nil
	default:
		return "", fmt.Errorf("avro: unsupported type %v", t)
	}
}

func primitiveType(s string) (types.Type, error) {
	switch s {
	case "long", "int":
		return types.Int64, nil
	case "double", "float":
		return types.Float64, nil
	case "string", "bytes":
		return types.Varchar, nil
	case "boolean":
		return types.Bool, nil
	default:
		return types.Unknown, fmt.Errorf("avro: unsupported primitive %q", s)
	}
}

// jsonField mirrors the Avro JSON schema representation of one field whose
// type is the union ["null", primitive].
type jsonField struct {
	Name string `json:"name"`
	Type []any  `json:"type"`
}

type jsonRecord struct {
	Type   string      `json:"type"`
	Name   string      `json:"name"`
	Fields []jsonField `json:"fields"`
}

// MarshalJSON renders the schema as Avro JSON.
func (s Schema) MarshalJSON() ([]byte, error) {
	rec := jsonRecord{Type: "record", Name: s.Name}
	if rec.Name == "" {
		rec.Name = "row"
	}
	for _, f := range s.Fields {
		p, err := avroPrimitive(f.Type)
		if err != nil {
			return nil, err
		}
		rec.Fields = append(rec.Fields, jsonField{Name: f.Name, Type: []any{"null", p}})
	}
	return json.Marshal(rec)
}

// ParseSchema parses an Avro JSON record schema (nullable primitives only).
func ParseSchema(data []byte) (Schema, error) {
	var rec jsonRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return Schema{}, fmt.Errorf("avro: bad schema JSON: %w", err)
	}
	if rec.Type != "record" {
		return Schema{}, fmt.Errorf("avro: schema type %q, want record", rec.Type)
	}
	s := Schema{Name: rec.Name}
	for _, f := range rec.Fields {
		prim := ""
		for _, t := range f.Type {
			ts, ok := t.(string)
			if !ok {
				return Schema{}, fmt.Errorf("avro: field %q has a non-primitive union branch", f.Name)
			}
			if ts != "null" {
				prim = ts
			}
		}
		if prim == "" {
			return Schema{}, fmt.Errorf("avro: field %q has no non-null branch", f.Name)
		}
		t, err := primitiveType(prim)
		if err != nil {
			return Schema{}, err
		}
		s.Fields = append(s.Fields, Field{Name: f.Name, Type: t})
	}
	return s, nil
}
