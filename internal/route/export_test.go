package route

// RefineRoutes exposes the refinement post-pass to the external
// differential tests, whose reference MM-Route shares it.
var RefineRoutes = refineRoutes
