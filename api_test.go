package stm_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
)

// goldenMethods is the exported method set of each handle type. The static
// transaction is the paper's one: Prepare a data set, then RunInto or
// TryInto it; ReadAllInto and WriteAll are its read and store without an
// update function. A method added here is a deliberate API change.
var goldenMethods = map[reflect.Type]string{
	reflect.TypeOf((*stm.Memory)(nil)): `AllocWords Atomically AtomicallyContext ConflictCount DebugString
		Engine ObsLevel Observe OrElse OrElseContext Peek Prepare ReadAllInto ResetStats
		SetChaos Size Stats WordsAllocated WriteAll`,
	reflect.TypeOf((*stm.Tx)(nil)):         `RunInto TryInto`,
	reflect.TypeOf((*stm.DTx)(nil)):        `Footprint Memory OnAbort OnCommit Read Retry Write`,
	reflect.TypeOf((*stm.Var[int64])(nil)): `Base Codec CompareAndSwap Load Store Update Words`,
}

// TestExportedMethodSets compares each handle type's exported methods with
// the golden list, so a verb can only come back through a visible diff.
func TestExportedMethodSets(t *testing.T) {
	for typ, golden := range goldenMethods {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			got = append(got, typ.Method(i).Name)
		}
		if want := strings.Fields(golden); !slices.Equal(got, want) {
			t.Errorf("%v methods changed:\ngot  %v\nwant %v", typ, got, want)
		}
	}
}
