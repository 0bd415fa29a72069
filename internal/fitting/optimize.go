package fitting

import (
	"errors"
	"math"
)

// NMOptions configures the Nelder–Mead simplex search.
type NMOptions struct {
	MaxIter int     // default 400·dim
	Tol     float64 // simplex size / value-spread tolerance, default 1e-9
	Step    float64 // initial simplex edge, default 1 (per coordinate)
}

// nmVertex is one simplex vertex and its objective value.
type nmVertex struct {
	x []float64
	v float64
}

// NelderMead minimises f starting from x0 and returns the best point and
// value. It is derivative-free and serves as the fallback optimiser when
// Levenberg–Marquardt stalls on the piecewise model's kinked residuals.
//
// The vertices and the centroid, reflection, expansion and contraction
// points share one buffer allocated per call; an accepted trial point
// trades buffers with the vertex it replaces, so iterations allocate
// nothing. f must not retain its argument.
func NelderMead(f func([]float64) float64, x0 []float64, opt NMOptions) ([]float64, float64, error) {
	n := len(x0)
	if n == 0 {
		return nil, 0, errors.New("fitting: empty start point")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 400 * n
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.Step == 0 {
		opt.Step = 1
	}
	buf := make([]float64, (n+5)*n)
	vec := func(i int) []float64 { return buf[i*n : (i+1)*n : (i+1)*n] }
	cen, refl, exp, con := vec(n+1), vec(n+2), vec(n+3), vec(n+4)
	simplex := make([]nmVertex, n+1)
	for i := range simplex {
		x := vec(i)
		copy(x, x0)
		if i > 0 {
			x[i-1] += opt.Step
		}
		simplex[i] = nmVertex{x: x, v: f(x)}
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	for iter := 0; iter < opt.MaxIter; iter++ {
		sortVertices(simplex)
		if simplex[n].v-simplex[0].v < opt.Tol {
			break
		}
		// Centroid of all but worst.
		clear(cen)
		for i := 0; i < n; i++ {
			for j := range cen {
				cen[j] += simplex[i].x[j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		worst := simplex[n]
		for j := range refl {
			refl[j] = cen[j] + alpha*(cen[j]-worst.x[j])
		}
		fr := f(refl)
		switch {
		case fr < simplex[0].v:
			for j := range exp {
				exp[j] = cen[j] + gamma*(refl[j]-cen[j])
			}
			if fe := f(exp); fe < fr {
				simplex[n], exp = nmVertex{exp, fe}, worst.x
			} else {
				simplex[n], refl = nmVertex{refl, fr}, worst.x
			}
		case fr < simplex[n-1].v:
			simplex[n], refl = nmVertex{refl, fr}, worst.x
		default:
			for j := range con {
				con[j] = cen[j] + rho*(worst.x[j]-cen[j])
			}
			if fc := f(con); fc < worst.v {
				simplex[n], con = nmVertex{con, fc}, worst.x
			} else {
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = f(simplex[i].x)
				}
			}
		}
	}
	sortVertices(simplex)
	return simplex[0].x, simplex[0].v, nil
}

// sortVertices orders the simplex by value with insertion sort. That is
// the algorithm sort.Slice runs on 12 elements or fewer, so on simplices
// that small, ties and NaN values order exactly as sort.Slice orders them.
func sortVertices(s []nmVertex) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].v < s[j-1].v; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// LMOptions configures Levenberg–Marquardt.
type LMOptions struct {
	MaxIter  int     // default 100
	Tol      float64 // relative cost-improvement tolerance, default 1e-10
	InitMu   float64 // initial damping, default 1e-3
	JacobEps float64 // finite-difference step, default 1e-6
}

// LevMar minimises ½·Σ r(x)² over x with a numeric-Jacobian
// Levenberg–Marquardt iteration and returns the solution. residuals writes
// the m residuals at x into r. It is this repository's replacement for
// SciPy's curve_fit (Section 4.3.3).
//
// One pooled buffer holds the iterate, the trial point, the residual
// vectors, the Jacobian and the normal equations; an accepted step trades
// buffers with the iterate, so iterations allocate nothing. The solution is
// returned in a slice of its own.
func LevMar(residuals func(x, r []float64), m int, x0 []float64, opt LMOptions) ([]float64, error) {
	n := len(x0)
	if n == 0 {
		return nil, errors.New("fitting: empty start point")
	}
	if m <= 0 {
		return nil, errors.New("fitting: no residuals")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 100
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	if opt.InitMu == 0 {
		opt.InitMu = 1e-3
	}
	if opt.JacobEps == 0 {
		opt.JacobEps = 1e-6
	}
	bp := floats.Get(5*n + n*n + n*(n+1) + 3*m + m*n)
	defer floats.Put(bp)
	x := levMar(residuals, m, x0, opt, *bp)
	return append([]float64(nil), x...), nil
}

// levMar runs LevMar's iteration in buf and returns the solution, which
// lies in buf.
func levMar(residuals func(x, r []float64), m int, x0 []float64, opt LMOptions, buf []float64) []float64 {
	n := len(x0)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	x, xp, xNew, delta, jtr := take(n), take(n), take(n), take(n), take(n)
	jtj, lhs := take(n*n), take(n*(n+1))
	r, rp, rNew, jac := take(m), take(m), take(m), take(m*n)
	copy(x, x0)
	residuals(x, r)
	cost := dot(r, r)
	mu := opt.InitMu
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Numeric Jacobian, forward differences; jac is m×n, row-major.
		for j := 0; j < n; j++ {
			h := opt.JacobEps * math.Max(1, math.Abs(x[j]))
			copy(xp, x)
			xp[j] += h
			residuals(xp, rp)
			for i := 0; i < m; i++ {
				jac[i*n+j] = (rp[i] - r[i]) / h
			}
		}
		// Normal equations: (JᵀJ + μ·diag(JᵀJ))·δ = -Jᵀr.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				var s float64
				for i := 0; i < m; i++ {
					s += jac[i*n+a] * jac[i*n+b]
				}
				jtj[a*n+b] = s
			}
			var s float64
			for i := 0; i < m; i++ {
				s += jac[i*n+a] * r[i]
			}
			jtr[a] = -s
		}
		improved := false
		for tries := 0; tries < 30; tries++ {
			// lhs is the augmented system [JᵀJ + μ·diag | -Jᵀr], n×(n+1).
			for a := 0; a < n; a++ {
				row := lhs[a*(n+1) : (a+1)*(n+1)]
				copy(row, jtj[a*n:(a+1)*n])
				row[a] += mu * math.Max(jtj[a*n+a], 1e-12)
				row[n] = jtr[a]
			}
			if err := solveDense(lhs, delta); err != nil {
				mu *= 10
				continue
			}
			for j := range xNew {
				xNew[j] = x[j] + delta[j]
			}
			residuals(xNew, rNew)
			cNew := dot(rNew, rNew)
			if cNew < cost {
				relImp := (cost - cNew) / math.Max(cost, 1e-300)
				x, xNew = xNew, x
				r, rNew = rNew, r
				cost = cNew
				mu = math.Max(mu/3, 1e-12)
				improved = true
				if relImp < opt.Tol {
					return x
				}
				break
			}
			mu *= 10
			if mu > 1e12 {
				return x // damped out: converged to the best found
			}
		}
		if !improved {
			return x
		}
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveDense solves A·x = b into x by Gaussian elimination with partial
// pivoting. aug is the augmented matrix [A | b], n×(n+1) row-major with
// n = len(x), and is overwritten.
func solveDense(aug, x []float64) error {
	n := len(x)
	w := n + 1
	row := func(i int) []float64 { return aug[i*w : (i+1)*w : (i+1)*w] }
	for col := 0; col < n; col++ {
		piv := col
		for rIdx := col + 1; rIdx < n; rIdx++ {
			if math.Abs(aug[rIdx*w+col]) > math.Abs(aug[piv*w+col]) {
				piv = rIdx
			}
		}
		if math.Abs(aug[piv*w+col]) < 1e-300 {
			return errors.New("fitting: singular system")
		}
		if piv != col {
			pr, cr := row(piv), row(col)
			for c := range cr {
				pr[c], cr[c] = cr[c], pr[c]
			}
		}
		cr := row(col)
		for rIdx := col + 1; rIdx < n; rIdx++ {
			rr := row(rIdx)
			f := rr[col] / cr[col]
			for c := col; c <= n; c++ {
				rr[c] -= f * cr[c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		ri := row(i)
		s := ri[n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return nil
}
