// Package schema gives BanditWare contexts names, types, and units. The
// paper's contexts are application resource characteristics (CPU usage,
// memory, input size), but a bare []float64 makes the feature layout an
// implicit contract between caller and model: reorder or re-scale one
// feature and every per-arm linear model is silently corrupted — the
// external-validity failure the bandit literature warns about. A Schema
// turns that layout into a declared, validated configuration surface:
//
//   - ordered named fields — numeric (optional bounds, default, online
//     min-max or z-score normalization) and categorical (a closed
//     category set that one-hot expands into the model dimension);
//   - a Context wire form (one JSON object of number- and string-valued
//     fields) with deterministic encode-to-vector;
//   - strict validation: unknown field, missing required field,
//     out-of-bounds value, and unknown category are reported per field,
//     all wrapping ErrSchemaViolation.
//
// Normalization statistics are accumulated online as contexts are
// encoded and are part of a Schema's JSON form, so a snapshotted stream
// resumes encoding exactly where it left off.
//
// Schemas are not goroutine-safe: Encode mutates normalization state.
// The serving layer guards each stream's schema with the stream mutex.
package schema

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Field kinds.
const (
	// KindNumeric is a real-valued field occupying one vector slot. The
	// empty kind means numeric.
	KindNumeric = "numeric"
	// KindCategorical is a closed-set string field, one-hot expanded into
	// len(Categories) vector slots.
	KindCategorical = "categorical"
)

// Normalization modes for numeric fields.
const (
	// NormNone passes raw values through.
	NormNone = ""
	// NormMinMax rescales by the running observed range:
	// (v − min)/(max − min), 0 while the range is degenerate.
	NormMinMax = "minmax"
	// NormZScore standardises by the running mean and sample standard
	// deviation: (v − mean)/sd, 0 while fewer than two values were seen.
	NormZScore = "zscore"
)

// Sentinel errors.
var (
	// ErrSchemaViolation is wrapped by every field-level context
	// validation error, so callers can errors.Is one sentinel regardless
	// of which rule a context broke.
	ErrSchemaViolation = errors.New("schema: context violates schema")
	// ErrInvalidSchema reports a malformed schema declaration (duplicate
	// field names, empty category sets, contradictory bounds, ...).
	ErrInvalidSchema = errors.New("schema: invalid schema")
)

// FieldError is one field-level violation found while validating a
// context: which field, and why. It wraps ErrSchemaViolation. The JSON
// form is the per-field entry of HTTP 422 responses.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"error"`
}

func (e *FieldError) Error() string { return fmt.Sprintf("field %q: %s", e.Field, e.Reason) }

// Unwrap makes every field error match ErrSchemaViolation.
func (e *FieldError) Unwrap() error { return ErrSchemaViolation }

// ValidationError aggregates every field-level violation of one context
// against one schema, in deterministic order (declared fields first,
// then unknown context fields sorted by name). It unwraps to its
// FieldErrors, so errors.Join-style flattening and
// errors.Is(err, ErrSchemaViolation) both work.
type ValidationError struct {
	fields []*FieldError
}

func (e *ValidationError) Error() string {
	parts := make([]string, len(e.fields))
	for i, f := range e.fields {
		parts[i] = f.Error()
	}
	return "schema: invalid context: " + strings.Join(parts, "; ")
}

// Unwrap returns the per-field errors.
func (e *ValidationError) Unwrap() []error {
	out := make([]error, len(e.fields))
	for i, f := range e.fields {
		out[i] = f
	}
	return out
}

// Fields returns the per-field violations in deterministic order.
func (e *ValidationError) Fields() []*FieldError { return e.fields }

// FieldStats is the online normalization state of one numeric field:
// observed count, range, and Welford mean/M2. It is part of the
// schema's JSON form so snapshots resume normalization exactly.
type FieldStats struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
}

// observe folds one raw value into the running statistics.
func (st *FieldStats) observe(v float64) {
	if st.Count == 0 {
		st.Min, st.Max = v, v
	} else {
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
	}
	st.Count++
	delta := v - st.Mean
	st.Mean += delta / float64(st.Count)
	st.M2 += delta * (v - st.Mean)
}

// Field declares one named feature. Kind selects the numeric attributes
// (Required/Default/Min/Max/Normalize) or the categorical ones
// (Categories/DefaultCategory); mixing them is an invalid schema.
type Field struct {
	Name string `json:"name"`
	// Kind is KindNumeric (the default when empty) or KindCategorical.
	Kind string `json:"kind,omitempty"`
	// Required rejects contexts that omit the field. A required field
	// cannot also carry a default.
	Required bool `json:"required,omitempty"`

	// Numeric attributes. An absent optional field encodes as Default
	// when set, else as 0 (without touching normalization statistics).
	// Min/Max bound the raw value inclusively.
	Default   *float64 `json:"default,omitempty"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	Normalize string   `json:"normalize,omitempty"`
	// Stats is the live normalization state (nil until the first
	// normalized encode). Persisted so restored schemas encode
	// identically.
	Stats *FieldStats `json:"stats,omitempty"`

	// Categorical attributes. The field one-hot expands into
	// len(Categories) slots, in category order; an absent optional field
	// encodes as DefaultCategory when set, else as all zeros.
	Categories      []string `json:"categories,omitempty"`
	DefaultCategory string   `json:"default_category,omitempty"`
}

// kind canonicalises Kind ("" means numeric).
func (f *Field) kind() string {
	if f.Kind == "" {
		return KindNumeric
	}
	return f.Kind
}

// width is the number of vector slots the field occupies.
func (f *Field) width() int {
	if f.kind() == KindCategorical {
		return len(f.Categories)
	}
	return 1
}

// category returns c's index in the field's category set, or -1.
func (f *Field) category(c string) int {
	for j, cat := range f.Categories {
		if cat == c {
			return j
		}
	}
	return -1
}

// normalize folds v into the field's running statistics and returns the
// normalized value.
func (f *Field) normalize(v float64) float64 {
	switch f.Normalize {
	case NormMinMax:
		if f.Stats == nil {
			f.Stats = &FieldStats{}
		}
		f.Stats.observe(v)
		if f.Stats.Max == f.Stats.Min {
			return 0
		}
		return (v - f.Stats.Min) / (f.Stats.Max - f.Stats.Min)
	case NormZScore:
		if f.Stats == nil {
			f.Stats = &FieldStats{}
		}
		f.Stats.observe(v)
		if f.Stats.Count < 2 {
			return 0
		}
		sd := math.Sqrt(f.Stats.M2 / float64(f.Stats.Count-1))
		if sd == 0 {
			return 0
		}
		return (v - f.Stats.Mean) / sd
	}
	return v
}

// Schema is an ordered set of named fields — the declared feature layout
// of one recommender stream. The zero value is invalid; declare fields
// or use Identity.
type Schema struct {
	Fields []Field `json:"fields"`
}

// Identity returns the schema equivalent of a bare dim-dimensional
// feature vector: required numeric fields named x0..x{dim-1} with no
// bounds and no normalization. Streams created without a declared
// schema serve context calls through it, and its encode is an exact
// pass-through of the corresponding raw vector.
func Identity(dim int) *Schema {
	fields := make([]Field, dim)
	for i := range fields {
		fields[i] = Field{Name: "x" + strconv.Itoa(i), Required: true}
	}
	return &Schema{Fields: fields}
}

// Parse decodes and validates a schema from its JSON form. Decoding is
// strict — unknown attributes are rejected, matching the HTTP create
// route — so a typo like "requird" fails loudly instead of silently
// declaring a different schema than the author intended.
func Parse(data []byte) (*Schema, error) {
	var s Schema
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSchema, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after schema document", ErrInvalidSchema)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the schema declaration itself (not a context): field
// names present and unique, kinds known, category sets non-empty and
// duplicate-free, bounds ordered, defaults consistent.
func (s *Schema) Validate() error {
	if len(s.Fields) == 0 {
		return fmt.Errorf("%w: no fields", ErrInvalidSchema)
	}
	seen := make(map[string]bool, len(s.Fields))
	for i := range s.Fields {
		f := &s.Fields[i]
		if f.Name == "" {
			return fmt.Errorf("%w: field %d has no name", ErrInvalidSchema, i)
		}
		if seen[f.Name] {
			return fmt.Errorf("%w: duplicate field %q", ErrInvalidSchema, f.Name)
		}
		seen[f.Name] = true
		switch f.kind() {
		case KindNumeric:
			if len(f.Categories) > 0 || f.DefaultCategory != "" {
				return fmt.Errorf("%w: numeric field %q has categorical attributes", ErrInvalidSchema, f.Name)
			}
			switch f.Normalize {
			case NormNone, NormMinMax, NormZScore:
			default:
				return fmt.Errorf("%w: field %q has unknown normalize mode %q", ErrInvalidSchema, f.Name, f.Normalize)
			}
			if f.Min != nil && f.Max != nil && *f.Min > *f.Max {
				return fmt.Errorf("%w: field %q has min %g > max %g", ErrInvalidSchema, f.Name, *f.Min, *f.Max)
			}
			if f.Default != nil {
				if f.Required {
					return fmt.Errorf("%w: field %q is required and has a default", ErrInvalidSchema, f.Name)
				}
				if math.IsNaN(*f.Default) || math.IsInf(*f.Default, 0) {
					return fmt.Errorf("%w: field %q has a non-finite default", ErrInvalidSchema, f.Name)
				}
				if (f.Min != nil && *f.Default < *f.Min) || (f.Max != nil && *f.Default > *f.Max) {
					return fmt.Errorf("%w: field %q default %g is outside its bounds", ErrInvalidSchema, f.Name, *f.Default)
				}
			}
		case KindCategorical:
			if f.Min != nil || f.Max != nil || f.Default != nil || f.Normalize != "" {
				return fmt.Errorf("%w: categorical field %q has numeric attributes", ErrInvalidSchema, f.Name)
			}
			if len(f.Categories) == 0 {
				return fmt.Errorf("%w: categorical field %q has no categories", ErrInvalidSchema, f.Name)
			}
			cats := make(map[string]bool, len(f.Categories))
			for _, c := range f.Categories {
				if c == "" {
					return fmt.Errorf("%w: field %q has an empty category", ErrInvalidSchema, f.Name)
				}
				if cats[c] {
					return fmt.Errorf("%w: field %q has duplicate category %q", ErrInvalidSchema, f.Name, c)
				}
				cats[c] = true
			}
			if f.DefaultCategory != "" {
				if f.Required {
					return fmt.Errorf("%w: field %q is required and has a default category", ErrInvalidSchema, f.Name)
				}
				if !cats[f.DefaultCategory] {
					return fmt.Errorf("%w: field %q default category %q is not in its category set", ErrInvalidSchema, f.Name, f.DefaultCategory)
				}
			}
		default:
			return fmt.Errorf("%w: field %q has unknown kind %q", ErrInvalidSchema, f.Name, f.Kind)
		}
	}
	return nil
}

// EncodedDim is the model dimension the schema encodes into: one slot
// per numeric field, len(Categories) slots per categorical field.
func (s *Schema) EncodedDim() int {
	dim := 0
	for i := range s.Fields {
		dim += s.Fields[i].width()
	}
	return dim
}

// FieldNames returns the declared field names in order.
func (s *Schema) FieldNames() []string {
	names := make([]string, len(s.Fields))
	for i := range s.Fields {
		names[i] = s.Fields[i].Name
	}
	return names
}

// Clone deep-copies the schema, including live normalization state.
func (s *Schema) Clone() *Schema {
	if s == nil {
		return nil
	}
	out := &Schema{Fields: make([]Field, len(s.Fields))}
	for i, f := range s.Fields {
		cp := f
		if f.Default != nil {
			d := *f.Default
			cp.Default = &d
		}
		if f.Min != nil {
			m := *f.Min
			cp.Min = &m
		}
		if f.Max != nil {
			m := *f.Max
			cp.Max = &m
		}
		if f.Stats != nil {
			st := *f.Stats
			cp.Stats = &st
		}
		cp.Categories = append([]string(nil), f.Categories...)
		out.Fields[i] = cp
	}
	return out
}

// ValidateContext checks a context against the schema without mutating
// normalization state. It returns nil or a *ValidationError listing
// every violation: unknown fields, missing required fields, values
// outside bounds, non-finite values, type mismatches, and unknown
// categories. A valid context allocates nothing: unknown fields are
// found by counting the context entries that matched a declared field,
// and only a context with unmatched entries pays for the name lookup
// that lists them.
func (s *Schema) ValidateContext(ctx Context) error {
	var errs []*FieldError
	fail := func(name, format string, args ...any) {
		errs = append(errs, &FieldError{Field: name, Reason: fmt.Sprintf(format, args...)})
	}
	matched := 0
	for i := range s.Fields {
		f := &s.Fields[i]
		v, isNum := ctx.Numeric[f.Name]
		c, isCat := ctx.Categorical[f.Name]
		if isNum {
			matched++
		}
		if isCat {
			matched++
		}
		switch f.kind() {
		case KindNumeric:
			if isCat {
				fail(f.Name, "expected a number, got a string")
				continue
			}
			if !isNum {
				if f.Required {
					fail(f.Name, "required field missing")
				}
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail(f.Name, "non-finite value")
				continue
			}
			if f.Min != nil && v < *f.Min {
				fail(f.Name, "value %g below minimum %g", v, *f.Min)
			}
			if f.Max != nil && v > *f.Max {
				fail(f.Name, "value %g above maximum %g", v, *f.Max)
			}
		case KindCategorical:
			if isNum {
				fail(f.Name, "expected a category string, got a number")
				continue
			}
			if !isCat {
				if f.Required {
					fail(f.Name, "required field missing")
				}
				continue
			}
			if f.category(c) < 0 {
				fail(f.Name, "unknown category %q (known: %s)", c, strings.Join(f.Categories, ", "))
			}
		}
	}
	if matched != len(ctx.Numeric)+len(ctx.Categorical) {
		declared := make(map[string]bool, len(s.Fields))
		for i := range s.Fields {
			declared[s.Fields[i].Name] = true
		}
		var unknown []string
		for k := range ctx.Numeric {
			if !declared[k] {
				unknown = append(unknown, k)
			}
		}
		for k := range ctx.Categorical {
			if !declared[k] {
				unknown = append(unknown, k)
			}
		}
		sort.Strings(unknown)
		for _, k := range unknown {
			fail(k, "unknown field")
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &ValidationError{fields: errs}
}

// Encode validates ctx and encodes it into a fresh vector in the
// schema's layout — EncodeInto with a new buffer.
func (s *Schema) Encode(ctx Context) ([]float64, error) {
	return s.EncodeInto(ctx, make([]float64, 0, s.EncodedDim()))
}

// EncodeInto validates ctx and appends its encoding to out (typically
// a reused buffer sliced to out[:0]), folding each present (or
// defaulted) numeric value into that field's running normalization
// statistics. The encoding is deterministic: declared field order, one
// slot per numeric field, one one-hot block per categorical field. A
// rejected context advances no statistic, and a valid one allocates
// nothing beyond growing out.
func (s *Schema) EncodeInto(ctx Context, out []float64) ([]float64, error) {
	if err := s.ValidateContext(ctx); err != nil {
		return nil, err
	}
	for i := range s.Fields {
		f := &s.Fields[i]
		if f.kind() == KindNumeric {
			v, ok := ctx.Numeric[f.Name]
			if !ok {
				if f.Default == nil {
					// Absent with no default: encode 0 without skewing the
					// normalization statistics with invented data.
					out = append(out, 0)
					continue
				}
				v = *f.Default
			}
			out = append(out, f.normalize(v))
			continue
		}
		c, ok := ctx.Categorical[f.Name]
		if !ok {
			c = f.DefaultCategory // "" selects no category: all zeros
		}
		hot := f.category(c)
		for j := range f.Categories {
			if j == hot {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out, nil
}

// Context is one workflow's named feature values: numbers for numeric
// fields, strings for categorical ones. The JSON form is a single flat
// object, e.g. {"cpu_usage": 3.5, "input_mb": 120, "site": "expanse"}.
type Context struct {
	Numeric     map[string]float64
	Categorical map[string]string
}

// Num builds a purely numeric context.
func Num(values map[string]float64) Context {
	return Context{Numeric: values}
}

// FromMap builds a Context from a flat name → value map, accepting Go
// numbers (any int/uint/float type) and strings — the decoded form of
// the JSON wire object.
func FromMap(m map[string]any) (Context, error) {
	ctx := Context{}
	for k, v := range m {
		switch t := v.(type) {
		case float64:
			ctx.setNum(k, t)
		case float32:
			ctx.setNum(k, float64(t))
		case int:
			ctx.setNum(k, float64(t))
		case int32:
			ctx.setNum(k, float64(t))
		case int64:
			ctx.setNum(k, float64(t))
		case uint:
			ctx.setNum(k, float64(t))
		case uint64:
			ctx.setNum(k, float64(t))
		case json.Number:
			f, err := t.Float64()
			if err != nil {
				return Context{}, fmt.Errorf("schema: context field %q: %v", k, err)
			}
			ctx.setNum(k, f)
		case string:
			if ctx.Categorical == nil {
				ctx.Categorical = make(map[string]string)
			}
			ctx.Categorical[k] = t
		default:
			return Context{}, fmt.Errorf("schema: context field %q must be a number or a string, got %T", k, v)
		}
	}
	return ctx, nil
}

func (c *Context) setNum(k string, v float64) {
	if c.Numeric == nil {
		c.Numeric = make(map[string]float64)
	}
	c.Numeric[k] = v
}

// MarshalJSON renders the context as one flat object with sorted keys.
func (c Context) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(c.Numeric)+len(c.Categorical))
	for k, v := range c.Numeric {
		m[k] = v
	}
	for k, v := range c.Categorical {
		m[k] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the flat-object wire form, splitting number
// values from string values. Any other value type is rejected.
func (c *Context) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	ctx, err := FromMap(m)
	if err != nil {
		return err
	}
	*c = ctx
	return nil
}
