package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a Matrix Market "coordinate real" matrix
// (general, symmetric, or skew-symmetric) from r. Symmetric inputs are
// expanded to full storage. Pattern matrices get value 1 per entry.
//
// This exists so the SuiteSparse matrices the paper evaluates on can be
// dropped in directly when available; the bench harness otherwise uses the
// synthetic generators in internal/gen. Because every caller loads
// graph-shaped matrices (full diagonal or connected adjacency, so
// nnz ≥ dim), headers declaring dimensions beyond nnz+1 are rejected as
// malformed rather than parsed — this deliberately trades spec generality
// (mostly-empty matrices) for not letting a tiny untrusted upload drive
// O(dim) allocations; see cmd/trsparsed.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	format, valType, symmetry := fields[2], fields[3], fields[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket format %q (only coordinate)", format)
	}
	pattern := valType == "pattern"
	if !pattern && valType != "real" && valType != "integer" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket value type %q", valType)
	}
	symmetric := symmetry == "symmetric"
	skew := symmetry == "skew-symmetric"
	if !symmetric && !skew && symmetry != "general" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symmetry)
	}

	// Skip comments, read size line.
	var rows, cols, nnz int
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("sparse: reading MatrixMarket size line: %w", err)
		}
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: unexpected EOF before MatrixMarket size line")
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %w", line, err)
		}
		if rows < 0 || cols < 0 || nnz < 0 {
			return nil, fmt.Errorf("sparse: negative MatrixMarket dimensions %dx%d nnz=%d", rows, cols, nnz)
		}
		// Downstream conversion allocates O(rows+cols); every matrix this
		// reader exists for (SDD with full diagonal, adjacency of a
		// connected graph) has nnz ≥ dim, so a header declaring huge
		// dimensions against a few entries is malformed — reject it before
		// a tiny input can drive a giant allocation.
		if rows > nnz+1 || cols > nnz+1 {
			return nil, fmt.Errorf("sparse: MatrixMarket header declares %dx%d but only %d entries", rows, cols, nnz)
		}
		// The MM spec requires symmetric storage to be square; without
		// this the mirrored Add of an in-range (i,j) can be out of range.
		if (symmetric || skew) && rows != cols {
			return nil, fmt.Errorf("sparse: %s MatrixMarket matrix must be square, got %dx%d", symmetry, rows, cols)
		}
		break
	}

	t := NewTriplet(rows, cols)
	read := 0
	for read < nnz {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			// A failed read (an oversized upload cut off by the server,
			// say) must not parse its partial last line as an entry.
			return nil, fmt.Errorf("sparse: reading MatrixMarket entry %d of %d: %w", read+1, nnz, err)
		}
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: unexpected EOF after %d of %d entries", read, nnz)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %w", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %w", f[1], err)
		}
		v := 1.0
		if !pattern {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value in entry %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %w", f[2], err)
			}
		}
		i--
		j--
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) out of declared range %dx%d", i+1, j+1, rows, cols)
		}
		t.Add(i, j, v)
		if i != j {
			if symmetric {
				t.Add(j, i, v)
			} else if skew {
				t.Add(j, i, -v)
			}
		}
		read++
	}
	return t.ToCSC(), nil
}

// WriteMatrixMarket writes A in "coordinate real general" form, or
// "coordinate real symmetric" (lower triangle only) when symmetric is true.
func WriteMatrixMarket(w io.Writer, a *CSC, symmetric bool) error {
	bw := bufio.NewWriter(w)
	kind := "general"
	if symmetric {
		kind = "symmetric"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", kind); err != nil {
		return err
	}
	nnz := 0
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if symmetric && a.RowIdx[k] < j {
				continue
			}
			nnz++
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, nnz); err != nil {
		return err
	}
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if symmetric && i < j {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
