package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"staticest/internal/gen"
	"staticest/internal/suite"
)

// mix is SplitMix64 over (seed, op): a per-operation random value that
// does not depend on the order in which workers take operations.
func mix(seed, op int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seededPerm is a permutation of [0, n) drawn from seed.
func seededPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// Kinds of estimate-churn operation.
const (
	kindHit = iota
	kindMiss
	kindIngest
)

// churnKind picks the kind of churn operation op: one in eight is an
// ingest, two in eight estimate a never-seen program, the rest are
// cache hits.
func churnKind(seed, op int64) int {
	switch mix(seed, op) % 8 {
	case 0:
		return kindIngest
	case 1, 2:
		return kindMiss
	}
	return kindHit
}

// churnSource is the never-seen program of churn operation op: a
// generated program whose generator seed is drawn from (seed, op).
func churnSource(seed, op int64) []byte {
	return gen.New(int64(mix(seed, op) >> 1)).Program()
}

// estimateBody is an inline-source POST /v1/estimate request body.
func estimateBody(name string, src []byte) []byte {
	b, err := json.Marshal(struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}{name, string(src)})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return b
}

// suiteProgram is one suite member prepared as an estimate request.
type suiteProgram struct {
	prog *suite.Program
	src  []byte
	body []byte
}

func suitePrograms() []suiteProgram {
	var out []suiteProgram
	for _, p := range suite.Programs() {
		src := []byte(p.Source)
		out = append(out, suiteProgram{prog: p, src: src, body: estimateBody(p.Name+".c", src)})
	}
	return out
}

// profileKey names one (program, input) pair of the profile workload.
func profileKey(prog, input string) string { return fmt.Sprintf("%s/%s", prog, input) }
