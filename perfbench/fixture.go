package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/value"
)

// The serve-mixed and ingest-openloop fixture: items with an owner
// column, owners, a selection view with incremental ∂put and a join view.
const (
	itemsDecl  = "items(iid:int, iname:string, price:int, oid:int)."
	ownersDecl = "owners(oid:int, oname:string)."

	luxuryProgram = `
source items(iid:int, iname:string, price:int, oid:int).
view luxury(iid:int, iname:string, price:int, oid:int).
_|_ :- luxury(I,N,P,O), not P > 1000.
m(I,N,P,O) :- items(I,N,P,O), P > 1000.
+items(I,N,P,O) :- luxury(I,N,P,O), not items(I,N,P,O).
-items(I,N,P,O) :- m(I,N,P,O), not luxury(I,N,P,O).
`
	luxuryGet = `luxury(I,N,P,O) :- items(I,N,P,O), P > 1000.`

	ownedProgram = `
source items(iid:int, iname:string, price:int, oid:int).
source owners(oid:int, oname:string).
view owned(iid:int, iname:string, price:int, oid:int, oname:string).
_|_ :- owners(O,N1), owners(O,N2), not N1 = N2.
_|_ :- owned(I,N,P,O,ON), not owners(O,ON).
-items(I,N,P,O) :- items(I,N,P,O), owners(O,ON), not owned(I,N,P,O,ON).
+items(I,N,P,O) :- owned(I,N,P,O,ON), not items(I,N,P,O).
`
	ownedGet = `owned(I,N,P,O,ON) :- items(I,N,P,O), owners(O,ON).`

	// luxuryMin is the selection bound of luxury: price > luxuryMin.
	luxuryMin = 1000
	// ownedShare is the one-in-N share of items that have an owner.
	ownedShare = 100
	// noOwner is the oid of an item nobody owns; no owner row has it.
	noOwner = -1
)

// itemRow builds an items tuple.
func itemRow(iid int64, name string, price, oid int64) value.Tuple {
	return value.Tuple{value.Int(iid), value.Str(name), value.Int(price), value.Int(oid)}
}

// randomPrice draws a price in [1, 2000], so about half the items are
// luxury.
func randomPrice(rng *rand.Rand) int64 { return int64(rng.Intn(2000) + 1) }

// randomOwner gives one item in ownedShare an owner.
func randomOwner(rng *rand.Rand, owners int) int64 {
	if rng.Intn(ownedShare) == 0 {
		return int64(rng.Intn(owners))
	}
	return noOwner
}

// loadItemsOwners creates and fills items (n rows from seed, then extra)
// and owners (m rows), then installs luxury (incremental) and owned.
func loadItemsOwners(db *engine.DB, in *installer, seed int64, n, m int, extra []value.Tuple) error {
	for _, d := range []string{itemsDecl, ownersDecl} {
		if err := createTable(db, d); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	items := make([]value.Tuple, n)
	for i := range items {
		items[i] = itemRow(int64(i), fmt.Sprintf("item%d", i), randomPrice(rng), randomOwner(rng, m))
	}
	items = append(items, extra...)
	if err := db.LoadTable("items", items); err != nil {
		return err
	}
	owners := make([]value.Tuple, m)
	for i := range owners {
		owners[i] = value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("owner%d", i))}
	}
	if err := db.LoadTable("owners", owners); err != nil {
		return err
	}
	if err := in.create(db, luxuryProgram, luxuryGet, true); err != nil {
		return fmt.Errorf("install luxury: %w", err)
	}
	if err := in.create(db, ownedProgram, ownedGet, false); err != nil {
		return fmt.Errorf("install owned: %w", err)
	}
	return nil
}

func createTable(db *engine.DB, decl string) error {
	p, err := datalog.Parse("source " + decl)
	if err != nil {
		return err
	}
	return db.CreateTable(p.Sources[0])
}

// staleViews counts views that fell off the incremental path.
func staleViews(db *engine.DB) int {
	n := 0
	for _, info := range db.Relations() {
		if info.Kind == "view" && db.Stale(info.Name) {
			n++
		}
	}
	return n
}

// tempDir makes a fresh directory under the build directory, where every
// file the benchmark writes lives.
func tempDir(name string) (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
