// Package precond is the pluggable preconditioner-construction layer of
// the solve stack. A core.Pencil no longer factorizes the sparsifier
// Laplacian itself; it delegates to a Builder strategy, which turns the
// assembled SPD matrix L_P into a solver.Preconditioner plus build
// telemetry. Two strategies ship:
//
//   - Monolithic: one sparse Cholesky factorization of the whole matrix
//     (the original behaviour, still the default);
//   - Schwarz: a two-level additive-Schwarz preconditioner over the
//     sharded pipeline's clusters — one Cholesky factor per cluster's
//     principal submatrix, built concurrently, plus a coarse-grid
//     correction assembled from the cluster quotient of L_P (one small
//     dense Cholesky solve per application). Factorization cost stays
//     linear in cluster size at a bounded PCG-iteration penalty, which is
//     what makes sparsifying at scale pay off: the sharded build's
//     dominant remaining superlinear cost was the monolithic factorization
//     of the stitched sparsifier.
package precond

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/chol"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Kind selects the preconditioner construction strategy.
type Kind int

const (
	// Auto (the zero value) picks Schwarz when the sparsifier was built
	// through the sharded pipeline (the cluster structure is already paid
	// for) and Monolithic otherwise.
	Auto Kind = iota
	// Monolithic factorizes the whole matrix with one sparse Cholesky.
	Monolithic
	// Schwarz builds the two-level additive-Schwarz preconditioner over
	// per-cluster factors plus a coarse cut-coupling correction.
	Schwarz
)

// String returns the wire name of the kind (also used in engine store
// keys and the HTTP ?precond= parameter).
func (k Kind) String() string {
	switch k {
	case Monolithic:
		return "monolithic"
	case Schwarz:
		return "schwarz"
	default:
		return "auto"
	}
}

// ParseKind maps a wire name back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "monolithic", "mono":
		return Monolithic, nil
	case "schwarz":
		return Schwarz, nil
	}
	return Auto, fmt.Errorf("precond: unknown kind %q (want auto, monolithic, or schwarz)", s)
}

// Stats is the build telemetry of one constructed preconditioner; handles
// expose it as PrecondStats and the HTTP service returns it alongside
// sparsify/solve responses.
type Stats struct {
	// Kind is the strategy that actually built the preconditioner
	// ("monolithic" or "schwarz" — Auto resolves before building).
	Kind string
	// Clusters is the number of per-cluster factors (0 for monolithic).
	Clusters int
	// CoarseSize is the dimension of the coarse-grid correction system
	// (0 when the coarse level is absent: monolithic, or a single
	// cluster).
	CoarseSize int
	// Colors is the number of Schwarz sweep colors (same-color clusters
	// are A-decoupled and apply together; 0 for monolithic).
	Colors int
	// FactorsReused counts per-cluster Schwarz factors adopted from the
	// factor cache instead of being refactorized (0 for monolithic or
	// cache-less builds).
	FactorsReused int
	// FactorNNZ totals the nonzeros across all sparse factors (the one
	// monolithic factor, or every per-cluster factor).
	FactorNNZ int64
	// PerClusterNNZ lists each cluster factor's nonzeros (nil for
	// monolithic).
	PerClusterNNZ []int
	// MemBytes is the storage footprint of all factors plus the coarse
	// solve.
	MemBytes int64
	// BuildTime is how long Build took (submatrix extraction +
	// factorization, including the coarse assembly).
	BuildTime time.Duration
}

// Builder turns an assembled SPD matrix into a ready preconditioner.
// Implementations must produce preconditioners that are safe for
// concurrent Apply calls (see solver.Preconditioner).
type Builder interface {
	// Kind names the strategy ("monolithic", "schwarz").
	Kind() string
	// Build factorizes a and returns the preconditioner plus telemetry.
	Build(a *sparse.CSC) (solver.Preconditioner, *Stats, error)
}

// monolithicBuilder is the default strategy: one sparse Cholesky of the
// whole matrix, applied through solver.CholPrecond.
type monolithicBuilder struct{}

// NewMonolithic returns the default builder: a single sparse Cholesky
// factorization of the whole matrix.
func NewMonolithic() Builder { return monolithicBuilder{} }

func (monolithicBuilder) Kind() string { return Monolithic.String() }

func (monolithicBuilder) Build(a *sparse.CSC) (solver.Preconditioner, *Stats, error) {
	start := time.Now()
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		return nil, nil, err
	}
	return solver.NewCholPrecond(f), &Stats{
		Kind:      Monolithic.String(),
		FactorNNZ: int64(f.NNZ()),
		MemBytes:  f.MemBytes(),
		BuildTime: time.Since(start),
	}, nil
}

// ErrBadAssignment is returned by the Schwarz builder when the cluster
// assignment does not cover the matrix.
var ErrBadAssignment = errors.New("precond: cluster assignment does not match matrix dimension")

// FactorCache stores per-cluster Cholesky factors keyed by cluster
// fingerprint, for reuse across rebuilds of the same graph family. A
// cached factor is adopted only when its extended index set matches the
// new build's exactly; its *values* may lag the new matrix slightly (the
// global shift, or stitch edges recovered near the boundary, can drift
// without changing the cluster fingerprint). That is sound: a stale SPD
// block inverse is still an SPD block inverse, so the symmetrized sweep
// stays an SPD preconditioner and PCG still converges to the true
// solution — at worst a few extra iterations, which the incremental
// quality gate bounds.
//
// Implementations must be safe for concurrent use: the Schwarz builder
// consults the cache from its factorization workers.
type FactorCache interface {
	// GetFactor returns the cached factor and its extended (sorted,
	// global) index set for key.
	GetFactor(key string) (*chol.Factor, []int, bool)
	// AddFactor stores a factor under key. Both arguments are owned by
	// the cache after the call (factors are immutable; idx is not
	// mutated by the builder afterwards).
	AddFactor(key string, f *chol.Factor, idx []int)
}
