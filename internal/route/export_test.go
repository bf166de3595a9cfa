package route

import "oregami/internal/topology"

// RefineRoutes exposes the refinement post-pass to the external
// differential tests, whose reference MM-Route shares it. It skips no
// pair: the referee runs the DP even where the shortest path is unique.
func RefineRoutes(net *topology.Network, pairs [][2]int, routes []topology.Route, linkUse []int) {
	maxLen := 0
	for _, r := range routes {
		maxLen = max(maxLen, len(r))
	}
	n := net.Processors()
	refineRoutes(net, pairs, routes, linkUse, nil, make([]int, 4*n+maxLen), make([]bool, n))
}
