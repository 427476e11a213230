package relational

import "fmt"

// Tuple is a row of a table. For keyword search only the text content
// matters, so the substrate stores a tuple as its primary key plus the
// concatenation of its text attributes.
type Tuple struct {
	// Key is the tuple's primary key, unique within its table.
	Key string
	// Text is the tuple's searchable text (concatenated text attributes).
	Text string
	// EntityKey optionally identifies the real-world entity this tuple
	// describes. Tuples in different tables sharing a non-empty EntityKey
	// are merged into a single graph node, reproducing the paper's
	// handling of people who appear both as actors and directors in IMDB
	// (§VI-A). An empty EntityKey never merges.
	EntityKey string
}

// link is one related tuple pair under a declared relationship.
type link struct {
	rel      *Relationship
	from, to int // global tuple indices
}

// table stores a single table's tuples.
type table struct {
	name  string
	rows  []int // global tuple indices, in insertion order
	byKey map[string]int
}

// Database is a populated instance of a Schema. It is not safe for
// concurrent mutation; build it fully, then derive the graph.
type Database struct {
	schema *Schema
	tables map[string]*table
	// tuples is the global tuple arena; tupleTable[i] names the table of
	// tuple i.
	tuples     []Tuple
	tupleTable []string
	links      []link
}

// NewDatabase creates an empty database for the schema. The schema is
// validated first.
func NewDatabase(schema *Schema) (*Database, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := &Database{
		schema: schema,
		tables: make(map[string]*table, len(schema.Tables)),
	}
	for _, name := range schema.Tables {
		db.tables[name] = &table{name: name, byKey: make(map[string]int)}
	}
	return db, nil
}

// Schema returns the database's schema.
func (db *Database) Schema() *Schema { return db.schema }

// Insert adds a tuple to the named table. The key must be non-empty and
// unique within the table.
func (db *Database) Insert(tableName string, t Tuple) error {
	tb, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relational: insert into unknown table %q", tableName)
	}
	if t.Key == "" {
		return fmt.Errorf("relational: insert into %q with empty key", tableName)
	}
	if _, dup := tb.byKey[t.Key]; dup {
		return fmt.Errorf("relational: duplicate key %q in table %q", t.Key, tableName)
	}
	idx := len(db.tuples)
	db.tuples = append(db.tuples, t)
	db.tupleTable = append(db.tupleTable, tableName)
	tb.rows = append(tb.rows, idx)
	tb.byKey[t.Key] = idx
	return nil
}

// MustInsert is Insert that panics on error; for generators and tests whose
// inputs are constructed to be valid.
func (db *Database) MustInsert(tableName string, t Tuple) {
	if err := db.Insert(tableName, t); err != nil {
		panic(err)
	}
}

// Relate records that the tuple fromKey (in the relationship's From table)
// is related to toKey (in its To table) under the named relationship — the
// foreign-key reference of §II-A, which the graph builder will turn into a
// pair of directed edges.
func (db *Database) Relate(relName, fromKey, toKey string) error {
	rel, ok := db.schema.relationship(relName)
	if !ok {
		return fmt.Errorf("relational: unknown relationship %q", relName)
	}
	from, err := db.lookup(rel.From, fromKey)
	if err != nil {
		return fmt.Errorf("relational: relate %q: %w", relName, err)
	}
	to, err := db.lookup(rel.To, toKey)
	if err != nil {
		return fmt.Errorf("relational: relate %q: %w", relName, err)
	}
	if from == to {
		return fmt.Errorf("relational: relate %q: tuple %q related to itself", relName, fromKey)
	}
	db.links = append(db.links, link{rel: rel, from: from, to: to})
	return nil
}

// MustRelate is Relate that panics on error.
func (db *Database) MustRelate(relName, fromKey, toKey string) {
	if err := db.Relate(relName, fromKey, toKey); err != nil {
		panic(err)
	}
}

// lookup resolves (table, key) to a global tuple index.
func (db *Database) lookup(tableName, key string) (int, error) {
	tb, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("unknown table %q", tableName)
	}
	idx, ok := tb.byKey[key]
	if !ok {
		return 0, fmt.Errorf("no tuple %q in table %q", key, tableName)
	}
	return idx, nil
}

// NumTuples reports the total number of tuples across all tables.
func (db *Database) NumTuples() int { return len(db.tuples) }

// NumLinks reports the number of recorded relationship instances.
func (db *Database) NumLinks() int { return len(db.links) }

// TableSize reports the number of tuples in the named table (0 if unknown).
func (db *Database) TableSize(tableName string) int {
	if tb, ok := db.tables[tableName]; ok {
		return len(tb.rows)
	}
	return 0
}

// Keys returns the primary keys of the named table in insertion order.
func (db *Database) Keys(tableName string) []string {
	tb, ok := db.tables[tableName]
	if !ok {
		return nil
	}
	out := make([]string, len(tb.rows))
	for i, idx := range tb.rows {
		out[i] = db.tuples[idx].Key
	}
	return out
}

// Lookup returns the tuple stored under (table, key).
func (db *Database) Lookup(tableName, key string) (Tuple, bool) {
	idx, err := db.lookup(tableName, key)
	if err != nil {
		return Tuple{}, false
	}
	return db.tuples[idx], true
}

// EachLink calls fn for every recorded relationship instance, in insertion
// order, with the relationship and the two tuples' keys. It lets callers
// replay a populated database into another store (e.g. the public builder)
// without reaching into the graph layer.
func (db *Database) EachLink(fn func(rel Relationship, fromKey, toKey string)) {
	for _, l := range db.links {
		fn(*l.rel, db.tuples[l.from].Key, db.tuples[l.to].Key)
	}
}
