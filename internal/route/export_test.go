package route

import (
	"oregami/internal/graph"
	"oregami/internal/topology"
)

// RefineRoutes exposes the refinement post-pass to the external
// differential tests, whose reference MM-Route shares it. It skips no
// pair: the referee runs the DP even where the shortest path is unique.
func RefineRoutes(net *topology.Network, pairs [][2]int, routes []topology.Route, linkUse []int, scr *graph.Scratch) {
	refineRoutes(net, pairs, routes, linkUse, nil, scr)
}
