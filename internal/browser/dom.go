package browser

import "strings"

// Node is one element of the page's in-memory DOM. Browsers have no
// concurrent DOM implementation (§4.1 of the paper calls this out as a
// key limitation), so JS-CERES must detect when hot loops touch it: the
// Window's element wrappers report every operation as a host op.
type Node struct {
	Tag      string
	id       string
	text     string
	attrs    map[string]string
	style    map[string]string
	children []*Node
	Parent   *Node

	doc *Document
}

// Document is the DOM root plus an id index.
type Document struct {
	Root *Node
	byID map[string]*Node
}

// NewDocument returns a document with <html><body> scaffolding.
func NewDocument() *Document {
	d := &Document{byID: make(map[string]*Node)}
	d.Root = d.CreateElement("html")
	d.Root.AppendChild(d.CreateElement("body"))
	return d
}

// Body returns the <body> element.
func (d *Document) Body() *Node {
	for _, c := range d.Root.children {
		if c.Tag == "body" {
			return c
		}
	}
	return d.Root
}

// CreateElement allocates a detached element.
func (d *Document) CreateElement(tag string) *Node {
	return &Node{
		Tag:   strings.ToLower(tag),
		attrs: make(map[string]string),
		style: make(map[string]string),
		doc:   d,
	}
}

// GetElementByID looks an element up by id attribute.
func (d *Document) GetElementByID(id string) *Node { return d.byID[id] }

// AppendChild attaches child to n (detaching it from any previous parent).
func (n *Node) AppendChild(child *Node) {
	if child == nil || child == n {
		return
	}
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	child.Parent = n
	n.children = append(n.children, child)
}

// RemoveChild detaches child from n; it reports whether child was found.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.children {
		if c == child {
			n.children = append(n.children[:i], n.children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// SetAttribute sets an attribute (indexing "id").
func (n *Node) SetAttribute(name, val string) {
	if name == "id" {
		if n.id != "" {
			delete(n.doc.byID, n.id)
		}
		n.id = val
		n.doc.byID[val] = n
	}
	n.attrs[name] = val
}

// GetAttribute reads an attribute ("" when missing).
func (n *Node) GetAttribute(name string) string {
	if name == "id" {
		return n.id
	}
	return n.attrs[name]
}

// SetStyle sets one CSS property.
func (n *Node) SetStyle(prop, val string) { n.style[prop] = val }

// GetStyle reads one CSS property.
func (n *Node) GetStyle(prop string) string { return n.style[prop] }

// SetText sets the text content.
func (n *Node) SetText(s string) { n.text = s }

// GetText reads the text content.
func (n *Node) GetText() string { return n.text }

// NumChildren returns the child count.
func (n *Node) NumChildren() int { return len(n.children) }

// ChildAt returns the i-th child or nil.
func (n *Node) ChildAt(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	return n.children[i]
}
