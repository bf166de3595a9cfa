package route

import "oregami/internal/topology"

// RefineRoutes exposes the refinement post-pass to the external
// differential tests, whose reference MM-Route shares it. It skips no
// pair: the referee runs the DP even where the shortest path is unique.
func RefineRoutes(net *topology.Network, pairs [][2]int, routes []topology.Route, linkUse []int) {
	var refine []int
	maxLen, maxDeg := 0, 0
	for i, p := range pairs {
		if p[0] != p[1] {
			refine = append(refine, i)
			maxLen = max(maxLen, len(routes[i]))
		}
	}
	n := net.Processors()
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, net.Degree(v))
	}
	refineRoutes(net, pairs, routes, linkUse, refine, make([]int, 4*n+maxLen*(1+maxDeg)), make([]bool, n))
}
