package jobs

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/results"
)

// queryJSON runs a query against a store and returns the compact
// response document, the byte string the restart-identity guarantees
// are phrased over.
func queryJSON(t *testing.T, s *results.Store, req string) string {
	t.Helper()
	r, err := results.DecodeRequest([]byte(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestManagerIngestsDoneJobs: every job reaching done lands exactly one
// row in the analytics store; failed jobs land none.
func TestManagerIngestsDoneJobs(t *testing.T) {
	store := results.NewStore()
	m := New(Options{QueueDepth: 4, Workers: 1, Results: store})
	defer m.Shutdown(context.Background())

	v1, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	spec2.Seed = 2
	v2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	// A job that fails at run time (its deadline has passed before the
	// first slot) must not be flattened.
	bad := testSpec()
	bad.TimeoutSec = 1e-9
	v3, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{v1.ID, v2.ID, v3.ID} {
		waitTerminal(t, m, id)
	}

	if !store.Has(v1.ID) || !store.Has(v2.ID) || store.Has(v3.ID) {
		t.Fatalf("store rows: has(%s)=%v has(%s)=%v has(%s)=%v",
			v1.ID, store.Has(v1.ID), v2.ID, store.Has(v2.ID), v3.ID, store.Has(v3.ID))
	}
	st := m.Stats()
	if st.ResultRows != 2 || st.ResultsBackfilled != 0 || st.ResultsErrors != 0 {
		t.Fatalf("stats = %+v, want 2 rows, 0 backfilled, 0 errors", st)
	}
	got := queryJSON(t, store, `{"group_by":["seed"],"aggregates":[{"op":"count"}]}`)
	want := `{"schema":1,"group_by":["seed"],"aggregates":["count"],"rows_scanned":2,"rows_matched":2,"groups":[{"key":[1],"values":[1]},{"key":[2],"values":[1]}]}`
	if got != want {
		t.Fatalf("query over ingested rows:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestManagerBackfillsResultsOnRecover is the restart half of the
// analytics contract: a fresh store rebuilt purely from the journal
// answers queries byte-identically to the live store that watched the
// jobs complete.
func TestManagerBackfillsResultsOnRecover(t *testing.T) {
	dir := t.TempDir()
	live := results.NewStore()
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: live})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		spec := testSpec()
		spec.Seed = seed
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m1, id)
	}
	// The worker ingests a done job's row after it publishes the done
	// edge, so waitTerminal can return before the last row lands.
	// Shutdown waits for the workers, and with them every ingest.
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	const req = `{"group_by":["seed"],"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"},{"op":"p95","column":"delay_p95"}]}`
	before := queryJSON(t, live, req)

	// Second life: empty in-memory store, rows rebuilt from the journal.
	rebuilt := results.NewStore()
	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: rebuilt})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st := m2.Stats()
	if st.ResultRows != 3 || st.ResultsBackfilled != 3 || st.ResultsErrors != 0 {
		t.Fatalf("backfill stats = %+v, want 3 rows all backfilled", st)
	}
	after := queryJSON(t, rebuilt, req)
	if before != after {
		t.Fatalf("backfilled store answers differently:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestManagerBackfillSkipsLoadedRows: when the store already loaded its
// rows from the table file, Recover must not double-ingest or count
// them as backfilled.
func TestManagerBackfillSkipsLoadedRows(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "results.table.json")

	s1, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: s1})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, v.ID)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("table file reloaded %d rows, want 1", s2.Len())
	}
	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: s2})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st := m2.Stats()
	if st.ResultRows != 1 || st.ResultsBackfilled != 0 || st.ResultsErrors != 0 {
		t.Fatalf("stats = %+v, want 1 loaded row and 0 backfilled", st)
	}
}
