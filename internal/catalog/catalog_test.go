package catalog

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func modelSchema() Schema {
	return Schema{Name: "model_version", Columns: []Column{
		{Name: "id", Type: Int, Primary: true},
		{Name: "name", Type: Text, Indexed: true},
		{Name: "accuracy", Type: Float},
		{Name: "frozen", Type: Bool},
	}}
}

func openWith(t *testing.T, rows ...Row) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := db.Insert("model_version", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sample() []Row {
	return []Row{
		{"id": 1, "name": "alexnet_v1", "accuracy": 0.55, "frozen": false},
		{"id": 2, "name": "alexnet_v2", "accuracy": 0.60, "frozen": false},
		{"id": 3, "name": "vgg_v1", "accuracy": 0.70, "frozen": true},
		{"id": 4, "name": "lenet", "accuracy": 0.98, "frozen": false},
	}
}

func TestCreateTableValidation(t *testing.T) {
	db, _ := Open("")
	if err := db.CreateTable(Schema{}); !errors.Is(err, ErrSchema) {
		t.Fatal("empty schema must fail")
	}
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}}}); !errors.Is(err, ErrSchema) {
		t.Fatal("duplicate column must fail")
	}
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{{Name: "a", Primary: true}, {Name: "b", Primary: true}}}); !errors.Is(err, ErrSchema) {
		t.Fatal("two pks must fail")
	}
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(modelSchema()); !errors.Is(err, ErrSchema) {
		t.Fatal("duplicate table must fail")
	}
	if !db.HasTable("model_version") || db.HasTable("nope") {
		t.Fatal("HasTable wrong")
	}
}

func TestInsertAndGet(t *testing.T) {
	db := openWith(t, sample()...)
	row, ok, err := db.Get("model_version", 3)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if row["name"] != "vgg_v1" || row["frozen"] != true {
		t.Fatalf("row = %v", row)
	}
	_, ok, err = db.Get("model_version", 99)
	if err != nil || ok {
		t.Fatal("missing pk must return not-found")
	}
	if _, _, err := db.Get("nope", 1); !errors.Is(err, ErrNoTable) {
		t.Fatal("unknown table must error")
	}
}

func TestPrimaryKeyConflict(t *testing.T) {
	db := openWith(t, sample()...)
	err := db.Insert("model_version", Row{"id": 1, "name": "dup"})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
}

func TestTypeChecking(t *testing.T) {
	db := openWith(t)
	if err := db.Insert("model_version", Row{"id": "not-an-int", "name": "x"}); !errors.Is(err, ErrType) {
		t.Fatalf("want ErrType, got %v", err)
	}
	if err := db.Insert("model_version", Row{"id": 9, "ghost": 1}); !errors.Is(err, ErrSchema) {
		t.Fatalf("unknown column must fail, got %v", err)
	}
	// Int->Float coercion is allowed.
	if err := db.Insert("model_version", Row{"id": 9, "name": "x", "accuracy": 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectWhere(t *testing.T) {
	db := openWith(t, sample()...)
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "accuracy", Op: Ge, Val: 0.6}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	rows, err = db.Select("model_version", Query{Where: []Cond{
		{Col: "accuracy", Op: Gt, Val: 0.56},
		{Col: "frozen", Op: Eq, Val: false},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("conjunction failed: %v", rows)
	}
	rows, err = db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Ne, Val: "lenet"}}})
	if err != nil || len(rows) != 3 {
		t.Fatalf("Ne: %v %v", rows, err)
	}
}

func TestSelectLike(t *testing.T) {
	db := openWith(t, sample()...)
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Like, Val: "alexnet_%"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("LIKE rows = %v", rows)
	}
	rows, err = db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Like, Val: "%_v1"}}})
	if err != nil || len(rows) != 2 {
		t.Fatalf("suffix LIKE = %v, %v", rows, err)
	}
	rows, err = db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Like, Val: "lene_"}}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("underscore LIKE = %v, %v", rows, err)
	}
	if _, err := db.Select("model_version", Query{Where: []Cond{{Col: "accuracy", Op: Like, Val: "x"}}}); !errors.Is(err, ErrType) {
		t.Fatal("LIKE on float must fail")
	}
}

func TestOrderByLimit(t *testing.T) {
	db := openWith(t, sample()...)
	rows, err := db.Select("model_version", Query{OrderBy: "accuracy", Desc: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["name"] != "lenet" || rows[1]["name"] != "vgg_v1" {
		t.Fatalf("ordered = %v", rows)
	}
	rows, err = db.Select("model_version", Query{OrderBy: "name"})
	if err != nil || rows[0]["name"] != "alexnet_v1" {
		t.Fatalf("asc order = %v", rows)
	}
}

func TestUpdate(t *testing.T) {
	db := openWith(t, sample()...)
	n, err := db.Update("model_version", []Cond{{Col: "name", Op: Like, Val: "alexnet%"}}, Row{"frozen": true})
	if err != nil || n != 2 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "frozen", Op: Eq, Val: true}}})
	if err != nil || len(rows) != 3 {
		t.Fatalf("after update: %v", rows)
	}
	if _, err := db.Update("model_version", nil, Row{"id": 9}); !errors.Is(err, ErrSchema) {
		t.Fatal("pk update must fail")
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	db := openWith(t, sample()...)
	if _, err := db.Update("model_version", []Cond{{Col: "id", Op: Eq, Val: 4}}, Row{"name": "lenet5"}); err != nil {
		t.Fatal(err)
	}
	// The indexed lookup must see the new value and not the old.
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Eq, Val: "lenet5"}}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("new value lookup: %v %v", rows, err)
	}
	rows, err = db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Eq, Val: "lenet"}}})
	if err != nil || len(rows) != 0 {
		t.Fatalf("old value lookup: %v %v", rows, err)
	}
}

func TestDelete(t *testing.T) {
	db := openWith(t, sample()...)
	n, err := db.Delete("model_version", []Cond{{Col: "accuracy", Op: Lt, Val: 0.65}})
	if err != nil || n != 2 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	c, err := db.Count("model_version", nil)
	if err != nil || c != 2 {
		t.Fatalf("count = %d, %v", c, err)
	}
	// Indexes must be rebuilt: pk lookups still work.
	row, ok, err := db.Get("model_version", 4)
	if err != nil || !ok || row["name"] != "lenet" {
		t.Fatalf("post-delete get: %v %v %v", row, ok, err)
	}
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "name", Op: Eq, Val: "vgg_v1"}}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("post-delete indexed lookup: %v", rows)
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	for _, r := range sample() {
		if err := db.Insert("model_version", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := db2.Get("model_version", 2)
	if err != nil || !ok || row["name"] != "alexnet_v2" || row["accuracy"] != 0.60 {
		t.Fatalf("reloaded row = %v, %v, %v", row, ok, err)
	}
	// Types must survive the JSON round trip.
	if _, isInt := row["id"].(int64); !isInt {
		t.Fatalf("id type = %T", row["id"])
	}
}

// Int columns come back from Save → Open with every bit, at the ends of the
// int64 range and just past float64's 53-bit mantissa.
func TestPersistenceIntRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	ids := []int64{math.MaxInt64, math.MinInt64, 1<<53 + 1}
	for _, id := range ids {
		if err := db.Insert("model_version", Row{"id": id, "name": "m", "accuracy": 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		row, ok, err := db2.Get("model_version", id)
		if err != nil || !ok || row["id"] != id {
			t.Fatalf("id %d after reopening: row %v, found %v, err %v", id, row, ok, err)
		}
	}
	if n, err := db2.Count("model_version", nil); err != nil || n != len(ids) {
		t.Fatalf("reopened catalog holds %d rows (%v), want %d", n, err, len(ids))
	}
}

// A catalog file (a pulled one is untrusted) whose Int column holds a
// fraction or a value past int64, or whose Float column overflows float64,
// fails Open with ErrType instead of loading a truncated or
// implementation-defined value.
func TestPersistenceRejectsInexactNumbers(t *testing.T) {
	schema := `{"name":"model_version","columns":[{"name":"id","type":0,"primary":true},{"name":"accuracy","type":1}]}`
	for _, row := range []string{
		`{"id":1.5,"accuracy":0.5}`,
		`{"id":1e300,"accuracy":0.5}`,
		`{"id":9223372036854775808,"accuracy":0.5}`,
		`{"id":1,"accuracy":1e400}`,
	} {
		path := filepath.Join(t.TempDir(), "db.json")
		if err := writeFile(path, `{"tables":[{"schema":`+schema+`,"rows":[`+row+`]}]}`); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrType) {
			t.Fatalf("row %s: Open err %v, want ErrType", row, err)
		}
	}
}

// A Save that cannot replace the file — here because its directory is
// read-only — returns the error and leaves the previous catalog whole,
// loadable and unchanged, with no temp file beside it.
func TestSaveFailureKeepsPreviousCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("model_version", sample()[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("model_version", sample()[1]); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(dir, 0o755) })
	if probe, err := os.CreateTemp(dir, "probe-*"); err == nil {
		_ = probe.Close()
		_ = os.Remove(probe.Name())
		t.Skip("directory permissions are not enforced for this user")
	}

	if err := db.Save(); err == nil {
		t.Fatal("Save into a read-only directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("a failed Save changed the catalog file")
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := reopened.Count("model_version", nil); err != nil || n != 1 {
		t.Fatalf("reopened catalog holds %d rows (%v), want the 1 saved", n, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed Save, want only the catalog", len(entries))
	}
}

func TestPersistenceCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	if err := writeFile(path, "{nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt db file must fail to open")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestRowsAreCopies(t *testing.T) {
	db := openWith(t, sample()...)
	rows, err := db.Select("model_version", Query{Where: []Cond{{Col: "id", Op: Eq, Val: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	rows[0]["name"] = "mutated"
	again, _, err := db.Get("model_version", 1)
	if err != nil || again["name"] != "alexnet_v1" {
		t.Fatal("Select must return copies")
	}
}

func TestLikeMatchProperty(t *testing.T) {
	// A pattern equal to the string (no wildcards) always matches; adding a
	// trailing % keeps it matching any extension.
	f := func(s string, suffix string) bool {
		if len(s) > 20 || len(suffix) > 20 {
			return true
		}
		clean := sanitize(s)
		ext := sanitize(suffix)
		return likeMatch(clean, clean) && likeMatch(clean+"%", clean+ext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != '%' && r != '_' {
			out = append(out, r)
		}
	}
	return string(out)
}

func TestLikeMatchCases(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true},
		{"%%", "anything", true},
		{"a%b", "ab", true},
		{"a%b", "axxxb", true},
		{"a%b", "axxxc", false},
		{"_", "x", true},
		{"_", "", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// Adversarial patterns must stay fast (the iterative matcher is
// O(len(p)*len(s)); the old recursive one was exponential here).
func TestLikeMatchAdversarial(t *testing.T) {
	s := strings.Repeat("a", 2000) + "b"
	p := strings.Repeat("%a", 30) + "%c"
	done := make(chan bool, 1)
	go func() { done <- likeMatch(p, s) }()
	select {
	case got := <-done:
		if got {
			t.Fatal("pattern must not match")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("likeMatch too slow on adversarial input")
	}
	if !likeMatch(strings.Repeat("%a", 30)+"%b", s) {
		t.Fatal("matching adversarial pattern must succeed")
	}
}
