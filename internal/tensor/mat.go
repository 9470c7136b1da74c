// Package tensor provides dense float32 matrices and goroutine-parallel
// blocked kernels. It is the compute substrate standing in for the
// PyTorch/CUDA tensor library that the TorchGT paper builds on: matrices are
// row-major, kernels are cache-blocked and parallelised over a shared worker
// pool, and all higher layers (nn, attention, model) are written against it.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major float32 matrix. The zero value is an empty matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero-initialised rows×cols matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data len %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns the i-th row as a slice sharing m's storage.
func (m *Mat) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Zero resets all elements to 0 in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (m *Mat) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; shapes must match.
func (m *Mat) CopyFrom(src *Mat) {
	m.mustSameShape(src)
	copy(m.Data, src.Data)
}

// SameShape reports whether m and o have identical dimensions.
func (m *Mat) SameShape(o *Mat) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Mat) mustSameShape(o *Mat) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// T returns a newly allocated transpose of m.
func (m *Mat) T() *Mat {
	out := New(m.Cols, m.Rows)
	transposeInto(out, m)
	return out
}

// transposeInto writes mᵀ into dst (m.Cols×m.Rows), overwriting it.
func transposeInto(dst, m *Mat) {
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// SliceRows returns a view of rows [lo, hi) sharing m's storage.
func (m *Mat) SliceRows(lo, hi int) *Mat {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: bad row slice [%d,%d) of %d", lo, hi, m.Rows))
	}
	return &Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Norm returns the Frobenius norm of m.
func (m *Mat) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value.
func (m *Mat) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Equal reports element-wise equality within tol.
func (m *Mat) Equal(o *Mat, tol float32) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// Bytes returns the storage footprint of the matrix in bytes (float32).
func (m *Mat) Bytes() int64 { return int64(m.Rows) * int64(m.Cols) * 4 }

func (m *Mat) String() string {
	return fmt.Sprintf("Mat(%dx%d)", m.Rows, m.Cols)
}
