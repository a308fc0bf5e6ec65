package core

// Limits exports the request bounds to the package's external tests.
var Limits = struct{ Clients, Workers, Parts, Txns, Cohort, Sweep int }{
	maxClients, maxWorkers, maxParts, maxTxns, maxCohort, maxSweep,
}
