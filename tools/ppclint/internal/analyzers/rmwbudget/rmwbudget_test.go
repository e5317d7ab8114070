package rmwbudget_test

import (
	"testing"

	"hurricane/tools/ppclint/internal/analyzers/rmwbudget"
	"hurricane/tools/ppclint/internal/ppctest"
)

func TestRMWBudget(t *testing.T) {
	ppctest.Run(t, "testdata/src/budget", rmwbudget.Analyzer)
}
