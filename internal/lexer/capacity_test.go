package lexer

import (
	"testing"

	"repro/internal/source"
	"repro/internal/suite"
)

// TestTokenizeCapacityFitsSuite: no suite program outgrows the token
// slice Tokenize reserves (a regrown slice has a capacity other than
// the reservation).
func TestTokenizeCapacityFitsSuite(t *testing.T) {
	for _, spec := range suite.Programs() {
		src := suite.Source(spec)
		toks := Tokenize(source.NewFile(spec.Name+".f", src), nil)
		if want := tokenCap(len(src)); cap(toks) != want {
			t.Errorf("%s: %d tokens from %d bytes (%.2f bytes/token): capacity %d, reserved %d — the slice was regrown",
				spec.Name, len(toks), len(src), float64(len(src))/float64(len(toks)), cap(toks), want)
		}
	}
}
