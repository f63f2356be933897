package data

import (
	"fmt"
	"sort"
)

// Catalog maps table names to tables, mirroring a database schema catalog.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table. Adding a table whose name is already registered is
// an error.
func (c *Catalog) Add(t *Table) error {
	if t == nil {
		return fmt.Errorf("data: cannot add nil table")
	}
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("data: catalog already has table %q", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// MustAdd is Add that panics on error.
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("data: catalog has no table %q", name)
	}
	return t, nil
}

// MustTable is Table that panics on error.
func (c *Catalog) MustTable(name string) *Table {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Has reports whether a table with the given name is registered.
func (c *Catalog) Has(name string) bool {
	_, ok := c.tables[name]
	return ok
}

// Names returns the sorted names of all registered tables.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
