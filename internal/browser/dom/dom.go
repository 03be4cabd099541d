// Package dom implements a minimal in-memory Document Object Model used
// as the substrate for the case-study workloads.
//
// Browsers have no concurrent DOM implementation (§4.1 of the paper calls
// this out as a key limitation), so JS-CERES must detect when hot loops
// touch the DOM. The model counts every operation; the browser wiring
// layer reports them to the interpreter as host ops so the loop profiler
// can attribute them to loop nests.
package dom

import (
	"fmt"
	"strings"
)

// Node is one element in the document tree.
type Node struct {
	Tag      string
	ID       string
	Text     string
	Attrs    map[string]string
	Style    map[string]string
	Children []*Node
	Parent   *Node

	doc *Document
}

// Document is the DOM root plus an id index and operation counters.
type Document struct {
	Root *Node
	byID map[string]*Node

	// Ops counts mutations and queries by operation name.
	Ops map[string]int64
	// TotalOps is the sum of all counters.
	TotalOps int64
}

// NewDocument returns a document with <html><body> scaffolding.
func NewDocument() *Document {
	d := &Document{
		byID: make(map[string]*Node),
		Ops:  make(map[string]int64),
	}
	d.Root = d.CreateElement("html")
	body := d.CreateElement("body")
	d.Root.AppendChild(body)
	return d
}

func (d *Document) count(op string) {
	d.Ops[op]++
	d.TotalOps++
}

// Body returns the <body> element.
func (d *Document) Body() *Node {
	for _, c := range d.Root.Children {
		if c.Tag == "body" {
			return c
		}
	}
	return d.Root
}

// CreateElement allocates a detached element.
func (d *Document) CreateElement(tag string) *Node {
	d.count("createElement")
	return &Node{
		Tag:   strings.ToLower(tag),
		Attrs: make(map[string]string),
		Style: make(map[string]string),
		doc:   d,
	}
}

// GetElementByID looks an element up by id attribute.
func (d *Document) GetElementByID(id string) *Node {
	d.count("getElementById")
	return d.byID[id]
}

// AppendChild attaches child to n (detaching it from any previous parent).
func (n *Node) AppendChild(child *Node) {
	if child == nil || child == n {
		return
	}
	n.doc.count("appendChild")
	if child.Parent != nil {
		child.Parent.removeChildNode(child)
	}
	child.Parent = n
	n.Children = append(n.Children, child)
}

// RemoveChild detaches child from n; it reports whether child was found.
func (n *Node) RemoveChild(child *Node) bool {
	n.doc.count("removeChild")
	return n.removeChildNode(child)
}

func (n *Node) removeChildNode(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// SetAttribute sets an attribute (indexing "id").
func (n *Node) SetAttribute(name, val string) {
	n.doc.count("setAttribute")
	if name == "id" {
		if n.ID != "" {
			delete(n.doc.byID, n.ID)
		}
		n.ID = val
		n.doc.byID[val] = n
	}
	n.Attrs[name] = val
}

// GetAttribute reads an attribute ("" when missing).
func (n *Node) GetAttribute(name string) string {
	n.doc.count("getAttribute")
	if name == "id" {
		return n.ID
	}
	return n.Attrs[name]
}

// SetStyle sets one CSS property.
func (n *Node) SetStyle(prop, val string) {
	n.doc.count("setStyle")
	n.Style[prop] = val
}

// GetStyle reads one CSS property.
func (n *Node) GetStyle(prop string) string {
	n.doc.count("getStyle")
	return n.Style[prop]
}

// SetText sets the text content.
func (n *Node) SetText(s string) {
	n.doc.count("setText")
	n.Text = s
}

// GetText reads the text content.
func (n *Node) GetText() string {
	n.doc.count("getText")
	return n.Text
}

// NumChildren returns the child count.
func (n *Node) NumChildren() int { return len(n.Children) }

// ChildAt returns the i-th child or nil.
func (n *Node) ChildAt(i int) *Node {
	if i < 0 || i >= len(n.Children) {
		return nil
	}
	return n.Children[i]
}

// Walk visits n and every descendant in document order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Render serializes the subtree as indented pseudo-HTML (debugging and
// golden tests).
func (n *Node) Render() string {
	var sb strings.Builder
	n.render(&sb, 0)
	return sb.String()
}

func (n *Node) render(sb *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	sb.WriteString(indent)
	sb.WriteByte('<')
	sb.WriteString(n.Tag)
	if n.ID != "" {
		fmt.Fprintf(sb, " id=%q", n.ID)
	}
	for k, v := range n.Attrs {
		if k == "id" {
			continue
		}
		fmt.Fprintf(sb, " %s=%q", k, v)
	}
	sb.WriteString(">")
	if n.Text != "" {
		sb.WriteString(n.Text)
	}
	if len(n.Children) > 0 {
		sb.WriteByte('\n')
		for _, c := range n.Children {
			c.render(sb, depth+1)
		}
		sb.WriteString(indent)
	}
	fmt.Fprintf(sb, "</%s>\n", n.Tag)
}
