package schema

// Encoder forwards to its schema's EncodeInto, the one validate and
// encode path, and holds nothing but the schema.
type Encoder struct {
	s *Schema
}

// Compile returns the Encoder for s.
func (s *Schema) Compile() *Encoder { return &Encoder{s: s} }

// EncodeInto is Schema.EncodeInto on the encoder's schema.
func (e *Encoder) EncodeInto(ctx Context, out []float64) ([]float64, error) {
	return e.s.EncodeInto(ctx, out)
}
