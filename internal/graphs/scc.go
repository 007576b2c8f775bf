// Package graphs provides the graph algorithms the estimators rely on:
// Tarjan's strongly-connected components, reachability, and topological
// ordering of the condensation. Graphs are adjacency lists over integer
// node IDs 0..n-1, or, for SCCFlat, the same lists packed in compressed
// sparse row form.
package graphs

import "math"

// SCC computes strongly-connected components using Tarjan's algorithm
// (iterative, so deep graphs cannot overflow the Go stack). Components
// are returned in reverse topological order of the condensation: every
// edge between distinct components points from a later component in the
// slice to an earlier one.
func SCC(n int, adj [][]int) [][]int {
	start := make([]int, n+1)
	for v, ws := range adj[:n] {
		start[v+1] = start[v] + len(ws)
	}
	succ := make([]int, 0, start[n])
	for _, ws := range adj[:n] {
		succ = append(succ, ws...)
	}
	members, bounds := SCCFlat(start, succ)
	comps := make([][]int, len(bounds)-1)
	for c := range comps {
		comps[c] = members[bounds[c]:bounds[c+1]:bounds[c+1]]
	}
	return comps
}

// SCCFlat is SCC for a graph in compressed sparse row form — node v's
// successors are succ[start[v]:start[v+1]] — returning the components
// flat: component c is members[bounds[c]:bounds[c+1]], in the order SCC
// returns them. It makes one allocation whatever the graph, where a
// slice per node and per component would dominate the cost of the many
// small graphs the Markov solver condenses.
func SCCFlat(start, succ []int) (members, bounds []int) {
	// A node's index is unvisited until the search reaches it, and
	// done once it is popped into a component: no index compares below
	// done, so an arc to a finished component never lowers a low-link,
	// which spares the usual on-stack flags.
	const unvisited, done = -1, math.MaxInt
	n := len(start) - 1
	buf := make([]int, 7*n+1)
	index, low := buf[:n], buf[n:2*n]
	stack := buf[2*n : 2*n : 3*n]
	members = buf[3*n : 3*n : 4*n]
	bounds = append(buf[4*n:4*n:5*n+1], 0)
	// The depth-first path: a node, and the position of its next
	// successor to visit.
	pathV, pathNext := buf[5*n+1:6*n+1], buf[6*n+1:7*n+1]
	for i := range index {
		index[i] = unvisited
	}
	counter := 0
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		pathV[0], pathNext[0] = root, start[root]
		depth := 1
		for depth > 0 {
			v := pathV[depth-1]
			if i := pathNext[depth-1]; i < start[v+1] {
				pathNext[depth-1]++
				w := succ[i]
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					pathV[depth], pathNext[depth] = w, start[w]
					depth++
				} else if index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					index[w] = done
					members = append(members, w)
					if w == v {
						break
					}
				}
				bounds = append(bounds, len(members))
			}
			depth--
			if depth > 0 {
				if parent := pathV[depth-1]; low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return members, bounds
}

// CompIndex maps each node to the index of its component in comps.
func CompIndex(n int, comps [][]int) []int {
	ci := make([]int, n)
	for i, comp := range comps {
		for _, v := range comp {
			ci[v] = i
		}
	}
	return ci
}

// IsRecursiveComp reports whether the component is recursive: more than
// one node, or a single node with a self-edge.
func IsRecursiveComp(comp []int, adj [][]int) bool {
	if len(comp) > 1 {
		return true
	}
	v := comp[0]
	for _, w := range adj[v] {
		if w == v {
			return true
		}
	}
	return false
}

// Reachable returns the set of nodes reachable from start (inclusive).
func Reachable(n int, adj [][]int, start int) []bool {
	seen := make([]bool, n)
	if start < 0 || start >= n {
		return seen
	}
	work := []int{start}
	seen[start] = true
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				work = append(work, w)
			}
		}
	}
	return seen
}
