package canvas

import (
	"testing"
	"testing/quick"
)

func TestFillRect(t *testing.T) {
	c := New(10, 10)
	c.SetFillStyle(255, 0, 0, 255)
	c.FillRect(2, 3, 4, 2)
	r, g, b, a := pixelAt(c, 2, 3)
	if r != 255 || g != 0 || b != 0 || a != 255 {
		t.Errorf("pixel inside = %d,%d,%d,%d", r, g, b, a)
	}
	if r, _, _, _ := pixelAt(c, 1, 3); r != 0 {
		t.Error("pixel left of rect painted")
	}
	if r, _, _, _ := pixelAt(c, 6, 3); r != 0 {
		t.Error("pixel right of rect painted")
	}
}

func TestFillRectClipping(t *testing.T) {
	c := New(4, 4)
	c.SetFillStyle(9, 9, 9, 255)
	c.FillRect(-5, -5, 100, 100) // whole canvas, no panic
	r, _, _, _ := pixelAt(c, 3, 3)
	if r != 9 {
		t.Error("clipped fill missed in-bounds pixels")
	}
}

func TestClearRect(t *testing.T) {
	c := New(4, 4)
	c.SetFillStyle(10, 20, 30, 255)
	c.FillRect(0, 0, 4, 4)
	c.ClearRect(1, 1, 2, 2)
	if r, _, _, a := pixelAt(c, 1, 1); r != 0 || a != 0 {
		t.Error("clear failed")
	}
	if r, _, _, _ := pixelAt(c, 0, 0); r != 10 {
		t.Error("clear overreached")
	}
}

func TestLineStroke(t *testing.T) {
	c := New(10, 10)
	c.SetStrokeStyle(0, 255, 0)
	c.BeginPath()
	c.MoveTo(0, 0)
	c.LineTo(9, 9)
	c.Stroke()
	for i := 0; i < 10; i++ {
		if _, g, _, _ := pixelAt(c, i, i); g != 255 {
			t.Fatalf("diagonal pixel (%d,%d) not stroked", i, i)
		}
	}
	// horizontal and vertical lines too
	c2 := New(5, 5)
	c2.SetStrokeStyle(1, 2, 3)
	c2.BeginPath()
	c2.MoveTo(0, 2)
	c2.LineTo(4, 2)
	c2.Stroke()
	for x := 0; x < 5; x++ {
		if r, _, _, _ := pixelAt(c2, x, 2); r != 1 {
			t.Fatalf("hline pixel %d missing", x)
		}
	}
}

func TestArcTouchesCircle(t *testing.T) {
	c := New(21, 21)
	c.SetStrokeStyle(7, 7, 7)
	c.BeginPath()
	c.Arc(10, 10, 8)
	c.Stroke()
	// a point on the circle (roughly) is painted; center is not
	if r, _, _, _ := pixelAt(c, 18, 10); r != 7 {
		t.Error("circle rim not painted")
	}
	if r, _, _, _ := pixelAt(c, 10, 10); r != 0 {
		t.Error("circle center painted")
	}
}

func TestImageDataRoundTrip(t *testing.T) {
	c := New(6, 6)
	c.SetFillStyle(100, 150, 200, 255)
	c.FillRect(1, 1, 3, 3)
	data := c.GetImageData(0, 0, 6, 6)
	if len(data) != 6*6*4 {
		t.Fatalf("data len %d", len(data))
	}
	c2 := New(6, 6)
	if err := c2.PutImageData(data, 0, 0, 6, 6); err != nil {
		t.Fatal(err)
	}
	if checksum(c) != checksum(c2) {
		t.Error("round trip changed pixels")
	}
}

func TestImageDataOutOfBounds(t *testing.T) {
	c := New(4, 4)
	data := c.GetImageData(-2, -2, 8, 8)
	if len(data) != 8*8*4 {
		t.Fatalf("padded read %d", len(data))
	}
	if err := c.PutImageData(data[:10], 0, 0, 8, 8); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestPutGetPropertyRoundTrip(t *testing.T) {
	// property: put(get(x)) is idempotent for in-bounds rectangles
	f := func(seed uint8) bool {
		c := New(8, 8)
		c.SetFillStyle(seed, seed/2, seed/3+1, 255)
		c.FillRect(float64(seed%4), float64(seed%3), 3, 3)
		before := checksum(c)
		data := c.GetImageData(0, 0, 8, 8)
		if err := c.PutImageData(data, 0, 0, 8, 8); err != nil {
			return false
		}
		return checksum(c) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinimumSize(t *testing.T) {
	c := New(0, -5)
	if c.w < 1 || c.h < 1 {
		t.Error("degenerate canvas dimensions")
	}
}

// pixelAt returns the RGBA at (x, y), or zeros outside the canvas.
func pixelAt(c *Canvas, x, y int) (r, g, b, a uint8) {
	if x < 0 || y < 0 || x >= c.w || y >= c.h {
		return
	}
	i := (y*c.w + x) * 4
	return c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3]
}

// checksum returns an FNV-1a hash of the pixels.
func checksum(c *Canvas) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range c.Pix {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
