// Package rng provides deterministic, splittable pseudo-random number
// generation for the whole repository. Every experiment in the paper is
// repeated over seeds; rng makes those runs reproducible by deriving
// independent streams from a root seed with splitmix64, so that adding a new
// consumer of randomness never perturbs the draws of existing ones.
package rng

import (
	"math"
)

// splitmix64 advances the state and returns the next 64-bit output.
// It is the standard seeding mixer from Steele et al. and gives
// well-distributed streams even for sequential seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small deterministic generator (xoshiro256** core) with
// convenience draws used across the repository.
type RNG struct {
	s [4]uint64
	// cached spare normal for the polar method
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from r and the given stream tag.
// Streams with distinct tags are statistically independent, and splitting
// does not advance r itself, so the parent's sequence is unaffected.
func (r *RNG) Split(tag uint64) *RNG {
	mix := r.s[0] ^ r.s[3] ^ (tag * 0xd1342543de82ef95)
	return New(mix)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Fingerprint returns a 64-bit digest of the generator's current state
// without advancing it. Two generators at the same state (e.g. produced by
// identical New/Split chains) share a fingerprint, so it identifies the
// random stream an evaluation will consume — the basis of cache keys over
// deterministic computations.
func (r *RNG) Fingerprint() uint64 {
	h := r.s[0]
	h = splitmix64(&h) ^ rotl(r.s[1], 13)
	h = splitmix64(&h) ^ rotl(r.s[2], 29)
	h = splitmix64(&h) ^ rotl(r.s[3], 43)
	return splitmix64(&h)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// FillUniform sets each element of dst, in order, to (2·Float64()−1)·bound,
// a draw uniform on [−bound, bound): the same values as that loop, leaving
// r in the same state, with the generator's state held in locals for the
// whole fill.
func (r *RNG) FillUniform(dst []float64, bound float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = (2*(float64(result>>11)/(1<<53)) - 1) * bound
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is negligible for the n used in this repo, but we
	// still reject to keep draws exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Norm returns a standard normal draw (Marsaglia polar method).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormScaled returns mean + sigma*Norm().
func (r *RNG) NormScaled(mean, sigma float64) float64 {
	return mean + sigma*r.Norm()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes s in place (Fisher–Yates).
func (r *RNG) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	if k == 0 {
		return nil
	}
	// For small k relative to n use Floyd's algorithm to avoid a full perm.
	if k*4 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if _, ok := seen[t]; ok {
				t = j
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
		r.Shuffle(out)
		return out
	}
	p := r.Perm(n)
	return p[:k]
}

// Choice returns one uniformly chosen element index weighted by w.
// Weights must be non-negative and not all zero.
func (r *RNG) Choice(w []float64) int {
	var total float64
	for _, v := range w {
		if v < 0 {
			panic("rng: negative weight")
		}
		total += v
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	x := r.Float64() * total
	for i, v := range w {
		x -= v
		if x < 0 {
			return i
		}
	}
	return len(w) - 1
}
