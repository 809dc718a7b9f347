// Package dpi implements XLF's network traffic monitoring (§IV-B2):
// signature rules in the style of Alhanahnah et al.'s cross-architecture
// IoT malware signatures, an Aho-Corasick multi-pattern matcher for
// cleartext payloads, and a BlindBox-style searchable-encryption path that
// lets the gateway match the same rules over encrypted traffic without
// breaking end-to-end security.
package dpi

// Aho-Corasick automaton over byte patterns. Built once per rule set,
// matched in O(len(payload) + matches). The trie lives in two flat slices,
// so building it allocates a handful of slices rather than a map per node:
// each node's children are a linked list of edges, and the root, where a
// scan spends most of its bytes, has a dense transition table instead.
type acNode struct {
	// child is the node's first edge in Matcher.edges, or -1.
	child int32
	fail  int32
	// out lists pattern indices terminating at this node.
	out []int32
}

// acEdge is one trie transition; sibling links the parent's next edge,
// or is -1.
type acEdge struct {
	b       byte
	to      int32
	sibling int32
}

// Matcher is an immutable multi-pattern matcher.
type Matcher struct {
	// root maps a byte to the root's child for it; 0, the root itself,
	// means none.
	root     [256]int32
	nodes    []acNode
	edges    []acEdge
	patterns [][]byte
}

// NewMatcher compiles patterns into an Aho-Corasick automaton. Empty
// patterns are ignored.
func NewMatcher(patterns [][]byte) *Matcher {
	m := &Matcher{}
	size := 1
	for _, p := range patterns {
		if len(p) == 0 {
			continue
		}
		m.patterns = append(m.patterns, append([]byte(nil), p...))
		size += len(p)
	}
	m.nodes = make([]acNode, 1, size)
	m.nodes[0].child = -1
	m.edges = make([]acEdge, 0, size)
	for i, p := range m.patterns {
		m.insert(p, int32(i))
	}
	m.buildFailLinks()
	return m
}

// next returns the child of node u on byte b, or -1.
func (m *Matcher) next(u int32, b byte) int32 {
	if u == 0 {
		if v := m.root[b]; v != 0 {
			return v
		}
		return -1
	}
	for e := m.nodes[u].child; e >= 0; e = m.edges[e].sibling {
		if m.edges[e].b == b {
			return m.edges[e].to
		}
	}
	return -1
}

func (m *Matcher) insert(p []byte, idx int32) {
	cur := int32(0)
	for _, b := range p {
		nxt := m.next(cur, b)
		if nxt < 0 {
			nxt = int32(len(m.nodes))
			m.nodes = append(m.nodes, acNode{child: -1})
			m.edges = append(m.edges, acEdge{b: b, to: nxt, sibling: m.nodes[cur].child})
			m.nodes[cur].child = int32(len(m.edges) - 1)
			if cur == 0 {
				m.root[b] = nxt
			}
		}
		cur = nxt
	}
	m.nodes[cur].out = append(m.nodes[cur].out, idx)
}

func (m *Matcher) buildFailLinks() {
	// BFS from the root; root's children fail to root.
	queue := make([]int32, 0, len(m.nodes))
	for e := m.nodes[0].child; e >= 0; e = m.edges[e].sibling {
		queue = append(queue, m.edges[e].to)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := m.nodes[u].child; e >= 0; e = m.edges[e].sibling {
			b, v := m.edges[e].b, m.edges[e].to
			queue = append(queue, v)
			// The longest proper suffix of v's string that is in the
			// trie extends the longest one of u's that has a b-child.
			f := m.nodes[u].fail
			for f != 0 && m.next(f, b) < 0 {
				f = m.nodes[f].fail
			}
			if nxt := m.next(f, b); nxt >= 0 && nxt != v {
				f = nxt
			} else {
				f = 0
			}
			m.nodes[v].fail = f
			m.nodes[v].out = append(m.nodes[v].out, m.nodes[f].out...)
		}
	}
}

// step moves the automaton from node cur on byte b.
func (m *Matcher) step(cur int32, b byte) int32 {
	for {
		if nxt := m.next(cur, b); nxt >= 0 {
			return nxt
		}
		if cur == 0 {
			return 0
		}
		cur = m.nodes[cur].fail
	}
}

// Match is one pattern occurrence.
type Match struct {
	// Pattern is the index into the compiled pattern list.
	Pattern int
	// End is the byte offset just past the occurrence.
	End int
}

// FindAll returns every pattern occurrence in data.
func (m *Matcher) FindAll(data []byte) []Match {
	var out []Match
	cur := int32(0)
	for i, b := range data {
		cur = m.step(cur, b)
		for _, pi := range m.nodes[cur].out {
			out = append(out, Match{Pattern: int(pi), End: i + 1})
		}
	}
	return out
}

// Contains reports whether any pattern occurs in data (early exit).
func (m *Matcher) Contains(data []byte) bool {
	cur := int32(0)
	for _, b := range data {
		cur = m.step(cur, b)
		if len(m.nodes[cur].out) > 0 {
			return true
		}
	}
	return false
}

// PatternCount returns the number of compiled patterns.
func (m *Matcher) PatternCount() int { return len(m.patterns) }
