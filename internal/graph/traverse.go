package graph

// EgoHops is the BFS radius of every ego-graph context: the sampled
// contexts of ego training and the per-request contexts of serving alike.
const EgoHops = 2

// BFS returns hop distances from src (-1 = unreachable), stopping early when
// maxDist is exceeded (pass maxDist < 0 for unbounded).
func (g *Graph) BFS(src int32, maxDist int) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if maxDist >= 0 && int(dist[u]) >= maxDist {
			continue
		}
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsConnected reports whether every node is reachable from node 0 (treating
// the graph as its stored directed structure; undirected graphs store both
// directions so this is ordinary connectivity).
func (g *Graph) IsConnected() bool {
	if g.N == 0 {
		return true
	}
	dist := g.BFS(0, -1)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// AllPairsSPD computes all-pairs shortest-path hop distances by running BFS
// from every node, capped at maxDist (distances beyond the cap and
// unreachable pairs are reported as maxDist+1). Intended for the small graphs
// of graph-level tasks, exactly like Graphormer's SPD bias precomputation.
func (g *Graph) AllPairsSPD(maxDist int) [][]int32 {
	out := make([][]int32, g.N)
	for i := 0; i < g.N; i++ {
		d := g.BFS(int32(i), maxDist)
		for j, v := range d {
			if v < 0 {
				d[j] = int32(maxDist + 1)
			}
		}
		out[i] = d
	}
	return out
}

// EccentricityFrom returns the largest finite BFS distance from src; a cheap
// diameter lower bound used by condition C3 checks.
func (g *Graph) EccentricityFrom(src int32) int {
	dist := g.BFS(src, -1)
	mx := 0
	for _, d := range dist {
		if int(d) > mx {
			mx = int(d)
		}
	}
	return mx
}

// SatisfiesDirac reports whether Dirac's theorem guarantees a Hamiltonian
// cycle (hence path): every node has degree ≥ N/2, N ≥ 3. This is the
// paper's fast heuristic for condition C2.
func (g *Graph) SatisfiesDirac() bool {
	if g.N < 3 {
		return false
	}
	// Self-loops do not count toward Dirac degrees.
	for i := 0; i < g.N; i++ {
		d := g.Degree(i)
		if g.HasEdge(int32(i), int32(i)) {
			d--
		}
		if 2*d < g.N {
			return false
		}
	}
	return true
}

// GreedyHamiltonianPath attempts to find a Hamiltonian path with a greedy
// lowest-degree-first extension heuristic and returns whether one was found.
// It is a fallback check for C2 on graphs failing Dirac's condition; a false
// return does not prove absence.
func (g *Graph) GreedyHamiltonianPath() ([]int32, bool) {
	if g.N == 0 {
		return nil, false
	}
	// Start at a minimum-degree node: such nodes are the hardest to place
	// mid-path.
	start := 0
	for i := 1; i < g.N; i++ {
		if g.Degree(i) < g.Degree(start) {
			start = i
		}
	}
	visited := make([]bool, g.N)
	path := make([]int32, 0, g.N)
	cur := int32(start)
	visited[start] = true
	path = append(path, cur)
	for len(path) < g.N {
		next := int32(-1)
		bestDeg := int(^uint(0) >> 1)
		for _, v := range g.Neighbors(int(cur)) {
			if visited[v] || v == cur {
				continue
			}
			if d := g.Degree(int(v)); d < bestDeg {
				bestDeg = d
				next = v
			}
		}
		if next < 0 {
			return path, false
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
	return path, true
}

// CountTriangles returns the number of triangles in an undirected graph
// (each triangle counted once). Used for planted graph-level regression
// targets.
func (g *Graph) CountTriangles() int64 {
	var count int64
	for u := 0; u < g.N; u++ {
		adjU := g.Neighbors(u)
		for _, v := range adjU {
			if int(v) <= u {
				continue
			}
			// count common neighbours w > v via merge
			adjV := g.Neighbors(int(v))
			i, j := 0, 0
			for i < len(adjU) && j < len(adjV) {
				a, b := adjU[i], adjV[j]
				switch {
				case a == b:
					if a > v {
						count++
					}
					i++
					j++
				case a < b:
					i++
				default:
					j++
				}
			}
		}
	}
	return count
}
