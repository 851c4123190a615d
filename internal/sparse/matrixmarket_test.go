package sparse

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
1 3 1.0
2 2 3.0
3 1 4.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 3 || a.NNZ() != 4 {
		t.Fatalf("shape %d×%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(0, 2) != 1 || a.At(1, 1) != 3 || a.At(2, 0) != 4 {
		t.Fatal("bad values")
	}
}

func TestReadMatrixMarketSymmetricExpands(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 || a.At(0, 0) != 5 {
		t.Fatal("symmetric expansion failed")
	}
	if !a.IsSymmetric(0) {
		t.Fatal("result should be symmetric")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 1 || a.At(1, 0) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",    // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",    // bad row
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1\n",    // bad col
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 z\n",    // bad val
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",        // short line
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",           // bad dims
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n", // bad size
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",      // missing value
		"%%MatrixMarket something else\n",                                  // bad header
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadMatrixMarketOutOfRange feeds entries outside the header's
// rows×cols (zero, negative and past-the-end indices, and a symmetric file
// whose mirrored entries would leave a non-square shape): each must come
// back as an error, never a panic out of the builder.
func TestReadMatrixMarketOutOfRange(t *testing.T) {
	cases := map[string]string{
		"row zero":            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
		"col zero":            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1.0\n",
		"row negative":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 1.0\n",
		"col negative":        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 -3\n",
		"row past rows":       "%%MatrixMarket matrix coordinate real general\n2 3 1\n3 1 1.0\n",
		"col past cols":       "%%MatrixMarket matrix coordinate real general\n3 2 1\n1 3 1.0\n",
		"symmetric past rows": "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n3 1 -1.0\n",
		"symmetric nonsquare": "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

// FuzzReadMatrixMarket checks that no input panics the parser and that every
// accepted matrix is well-formed CSR. The committed corpus under
// testdata/fuzz/FuzzReadMatrixMarket holds the out-of-range entry cases, so
// plain `go test` replays them.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n1 3 1.0\n2 2 3.0\n3 1 4.0\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
			t.Fatalf("malformed CSR: rows %d, rowptr %d, col %d, val %d", a.Rows, len(a.RowPtr), len(a.Col), len(a.Val))
		}
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] > a.RowPtr[i+1] {
				t.Fatalf("row pointer decreases at row %d", i)
			}
		}
		for _, c := range a.Col {
			if c < 0 || c >= a.Cols {
				t.Fatalf("column %d outside 0..%d", c, a.Cols-1)
			}
		}
	})
}

// gzipped compresses a MatrixMarket source in memory.
func gzipped(t *testing.T, src []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixMarketRoundTripVariants pushes matrices of each supported
// qualifier through Write → Read, plain and gzipped, and checks the dense
// images agree. Pattern and symmetric inputs exercise the expansion edge
// cases: Write emits the already-expanded general form, so the reread must
// match the first parse exactly.
func TestMatrixMarketRoundTripVariants(t *testing.T) {
	sources := map[string]string{
		"general": `%%MatrixMarket matrix coordinate real general
3 3 4
1 1 2.0
1 3 1.0
2 2 3.0
3 1 4.0
`,
		// Symmetric with a diagonal entry (expanded once, not twice) and an
		// off-diagonal entry (mirrored into both triangles).
		"symmetric": `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
3 1 -1.5
2 2 0.25
`,
		// Pattern entries take value 1; integer values parse as floats.
		"pattern": `%%MatrixMarket matrix coordinate pattern general
2 3 3
1 2
2 1
2 3
`,
		"integer": `%%MatrixMarket matrix coordinate integer symmetric
2 2 2
1 1 4
2 1 -7
`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			a, err := ReadMatrixMarket(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteMatrixMarket(&buf, a); err != nil {
				t.Fatal(err)
			}
			plain := buf.Bytes()
			for _, enc := range []struct {
				form string
				data []byte
			}{{"plain", plain}, {"gzip", gzipped(t, plain)}} {
				b, err := ReadMatrixMarket(bytes.NewReader(enc.data))
				if err != nil {
					t.Fatalf("%s reread: %v", enc.form, err)
				}
				if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
					t.Fatalf("%s reread shape %d×%d nnz %d, want %d×%d nnz %d",
						enc.form, b.Rows, b.Cols, b.NNZ(), a.Rows, a.Cols, a.NNZ())
				}
				da, db := denseOf(a), denseOf(b)
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("%s reread value mismatch at %d", enc.form, i)
					}
				}
			}
		})
	}
}

// TestReadMatrixMarketGzipDirect reads a gzipped original source (not a
// rewrite) — the registry-upload path.
func TestReadMatrixMarketGzipDirect(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(bytes.NewReader(gzipped(t, []byte(src))))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 || a.At(0, 0) != 5 {
		t.Fatal("gzip symmetric parse failed")
	}
}

// TestReadMatrixMarketBadGzip: a valid magic followed by garbage must error,
// not hang or panic.
func TestReadMatrixMarketBadGzip(t *testing.T) {
	if _, err := ReadMatrixMarket(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Fatal("want error for corrupt gzip stream")
	}
	// A 1-byte stream (shorter than the magic) is an ordinary parse error.
	if _, err := ReadMatrixMarket(bytes.NewReader([]byte{0x1f})); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 9, 7, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	da, db := denseOf(a), denseOf(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("round trip mismatch")
		}
	}
}
