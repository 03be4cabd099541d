package dom

import (
	"testing"
)

func TestDocumentScaffolding(t *testing.T) {
	d := NewDocument()
	if d.root == nil || d.root.Tag != "html" {
		t.Fatal("no html root")
	}
	if d.Body() == nil || d.Body().Tag != "body" {
		t.Fatal("no body")
	}
}

func TestCreateAndAppend(t *testing.T) {
	d := NewDocument()
	div := d.CreateElement("DIV")
	if div.Tag != "div" {
		t.Errorf("tag %q not lowercased", div.Tag)
	}
	d.Body().AppendChild(div)
	if div.parent != d.Body() || d.Body().NumChildren() != 1 {
		t.Error("append failed")
	}
	// re-append to another parent moves the node
	other := d.CreateElement("span")
	d.Body().AppendChild(other)
	other.AppendChild(div)
	if d.Body().NumChildren() != 1 || other.NumChildren() != 1 || div.parent != other {
		t.Error("reparenting failed")
	}
}

func TestRemoveChild(t *testing.T) {
	d := NewDocument()
	a := d.CreateElement("a")
	b := d.CreateElement("b")
	d.Body().AppendChild(a)
	d.Body().AppendChild(b)
	if !d.Body().RemoveChild(a) {
		t.Error("remove existing")
	}
	if d.Body().RemoveChild(a) {
		t.Error("remove twice")
	}
	if d.Body().NumChildren() != 1 || d.Body().ChildAt(0) != b {
		t.Error("children after removal")
	}
	if d.Body().ChildAt(5) != nil || d.Body().ChildAt(-1) != nil {
		t.Error("out-of-range ChildAt")
	}
}

func TestIDIndex(t *testing.T) {
	d := NewDocument()
	n := d.CreateElement("div")
	n.SetAttribute("id", "x")
	if d.GetElementByID("x") != n {
		t.Error("id lookup")
	}
	n.SetAttribute("id", "y")
	if d.GetElementByID("x") != nil || d.GetElementByID("y") != n {
		t.Error("id re-index")
	}
	if n.GetAttribute("id") != "y" {
		t.Error("get id attr")
	}
}

func TestAttributesAndStyle(t *testing.T) {
	d := NewDocument()
	n := d.CreateElement("div")
	n.SetAttribute("data-k", "v")
	if n.GetAttribute("data-k") != "v" || n.GetAttribute("missing") != "" {
		t.Error("attributes")
	}
	n.SetStyle("left", "10px")
	if n.GetStyle("left") != "10px" || n.GetStyle("top") != "" {
		t.Error("style")
	}
	n.SetText("hello")
	if n.GetText() != "hello" {
		t.Error("text")
	}
}

func TestAppendSelfIgnored(t *testing.T) {
	d := NewDocument()
	n := d.CreateElement("div")
	n.AppendChild(n)
	if n.NumChildren() != 0 {
		t.Error("self-append created a cycle")
	}
}
