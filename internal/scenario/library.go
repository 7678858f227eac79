package scenario

import (
	"fmt"

	"hypertrio/scenarios"
)

// ByName decodes the committed scenario scenarios/<name>.json. Each
// call returns a fresh Scenario the caller may mutate.
func ByName(name string) (*Scenario, error) {
	f, err := scenarios.FS.Open(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no library scenario %q", name)
	}
	defer f.Close()
	return ReadScenario(f)
}
