package search

import (
	"fmt"
	"strings"

	"ruby/internal/nest"
)

// Objective selects the metric a search minimizes. The paper's evaluation
// optimizes EDP throughout ("EDP encapsulates the benefits and drawbacks of
// improved PE utilization") but also reports latency-targeted results in
// Section IV-D; Timeloop supports energy- and delay-only objectives as well.
type Objective uint8

const (
	// ObjectiveEDP minimizes energy x delay (the paper's default).
	ObjectiveEDP Objective = iota
	// ObjectiveEnergy minimizes total energy.
	ObjectiveEnergy
	// ObjectiveDelay minimizes cycles (latency).
	ObjectiveDelay
)

// objectiveNames spells each objective: String prints the name and
// ParseObjective accepts it in any case.
var objectiveNames = [...]string{ObjectiveEDP: "EDP", ObjectiveEnergy: "energy", ObjectiveDelay: "delay"}

// String names the objective ("EDP", "energy", "delay").
func (o Objective) String() string {
	if int(o) < len(objectiveNames) {
		return objectiveNames[o]
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// ParseObjective resolves an objective name, ignoring case and surrounding
// space: a name String prints, "" for the default (EDP), or a delay alias,
// "latency" or "cycles". Every CLI flag and /v1 request field naming an
// objective goes through it.
func ParseObjective(name string) (Objective, error) {
	switch n := strings.ToLower(strings.TrimSpace(name)); n {
	case "":
		return ObjectiveEDP, nil
	case "latency", "cycles":
		return ObjectiveDelay, nil
	default:
		for o, s := range objectiveNames {
			if strings.EqualFold(n, s) {
				return Objective(o), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown objective %q (want edp|energy|delay)", name)
}

// Value extracts the objective's metric from a cost.
func (o Objective) Value(c *nest.Cost) float64 {
	switch o {
	case ObjectiveEnergy:
		return c.EnergyPJ
	case ObjectiveDelay:
		return c.Cycles
	default:
		return c.EDP
	}
}
