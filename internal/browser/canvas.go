package browser

import (
	"fmt"
	"math"
)

// Canvas is a software 2D canvas: an RGBA8 pixel buffer with the drawing
// operations the case-study workloads use (fillRect, paths, per-pixel
// image data access). Like the DOM it is a non-concurrent browser
// structure; the paper's Table 3 marks loops that read or write it.
type Canvas struct {
	W, H int
	// Pix is RGBA, 4 bytes per pixel, row-major.
	Pix []uint8

	// path state
	pathX, pathY []float64
	fillR        uint8
	fillG        uint8
	fillB        uint8
	fillA        uint8
	strokeR      uint8
	strokeG      uint8
	strokeB      uint8
}

// NewCanvas returns a w×h canvas cleared to transparent black.
func NewCanvas(w, h int) *Canvas {
	w, h = max(w, 1), max(h, 1)
	return &Canvas{
		W:     w,
		H:     h,
		Pix:   make([]uint8, w*h*4),
		fillA: 255,
	}
}

// SetFillStyle sets the fill color.
func (c *Canvas) SetFillStyle(r, g, b, a uint8) {
	c.fillR, c.fillG, c.fillB, c.fillA = r, g, b, a
}

// SetStrokeStyle sets the stroke color.
func (c *Canvas) SetStrokeStyle(r, g, b uint8) {
	c.strokeR, c.strokeG, c.strokeB = r, g, b
}

// FillRect fills an axis-aligned rectangle.
func (c *Canvas) FillRect(x, y, w, h float64) {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	x1, y1 := int(math.Ceil(x+w)), int(math.Ceil(y+h))
	for py := max(0, y0); py < min(c.H, y1); py++ {
		for px := max(0, x0); px < min(c.W, x1); px++ {
			i := (py*c.W + px) * 4
			c.Pix[i] = c.fillR
			c.Pix[i+1] = c.fillG
			c.Pix[i+2] = c.fillB
			c.Pix[i+3] = c.fillA
		}
	}
}

// ClearRect zeroes a rectangle.
func (c *Canvas) ClearRect(x, y, w, h float64) {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	x1, y1 := int(math.Ceil(x+w)), int(math.Ceil(y+h))
	for py := max(0, y0); py < min(c.H, y1); py++ {
		for px := max(0, x0); px < min(c.W, x1); px++ {
			i := (py*c.W + px) * 4
			c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3] = 0, 0, 0, 0
		}
	}
}

// BeginPath starts a new path.
func (c *Canvas) BeginPath() {
	c.pathX = c.pathX[:0]
	c.pathY = c.pathY[:0]
}

// MoveTo starts a subpath at (x, y).
func (c *Canvas) MoveTo(x, y float64) {
	c.pathX = append(c.pathX, x)
	c.pathY = append(c.pathY, y)
}

// LineTo extends the path to (x, y).
func (c *Canvas) LineTo(x, y float64) {
	c.pathX = append(c.pathX, x)
	c.pathY = append(c.pathY, y)
}

// Stroke rasterizes the current path with 1px lines (Bresenham).
func (c *Canvas) Stroke() {
	for i := 1; i < len(c.pathX); i++ {
		c.line(c.pathX[i-1], c.pathY[i-1], c.pathX[i], c.pathY[i])
	}
}

// Arc approximates a circle outline (used by drawing workloads).
func (c *Canvas) Arc(cx, cy, r float64) {
	steps := int(math.Max(8, r))
	for i := 0; i <= steps; i++ {
		a := 2 * math.Pi * float64(i) / float64(steps)
		x, y := cx+r*math.Cos(a), cy+r*math.Sin(a)
		if i == 0 {
			c.MoveTo(x, y)
		} else {
			c.LineTo(x, y)
		}
	}
}

func (c *Canvas) line(x0f, y0f, x1f, y1f float64) {
	x0, y0 := int(x0f), int(y0f)
	x1, y1 := int(x1f), int(y1f)
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := sign(x1-x0), sign(y1-y0)
	err := dx + dy
	for {
		c.setPixel(x0, y0, c.strokeR, c.strokeG, c.strokeB, 255)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func (c *Canvas) setPixel(x, y int, r, g, b, a uint8) {
	if x < 0 || y < 0 || x >= c.W || y >= c.H {
		return
	}
	i := (y*c.W + x) * 4
	c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3] = r, g, b, a
}

// GetImageData copies a rectangle of pixels (RGBA bytes).
func (c *Canvas) GetImageData(x, y, w, h int) []uint8 {
	out := make([]uint8, 0, w*h*4)
	for py := y; py < y+h; py++ {
		for px := x; px < x+w; px++ {
			if px < 0 || py < 0 || px >= c.W || py >= c.H {
				out = append(out, 0, 0, 0, 0)
				continue
			}
			i := (py*c.W + px) * 4
			out = append(out, c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3])
		}
	}
	return out
}

// PutImageData writes a rectangle of pixels (RGBA bytes).
func (c *Canvas) PutImageData(data []uint8, x, y, w, h int) error {
	if len(data) < w*h*4 {
		return fmt.Errorf("canvas: putImageData with %d bytes, need %d", len(data), w*h*4)
	}
	k := 0
	for py := y; py < y+h; py++ {
		for px := x; px < x+w; px++ {
			if px >= 0 && py >= 0 && px < c.W && py < c.H {
				i := (py*c.W + px) * 4
				c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3] = data[k], data[k+1], data[k+2], data[k+3]
			}
			k += 4
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
