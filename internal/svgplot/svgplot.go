// Package svgplot renders routing solutions and IR-drop maps as standalone
// SVG documents, reproducing the visual artifacts of the paper: the package
// routing plots of Fig 15 and the IR-drop heat maps of Fig 6. Only the
// standard library is used; the output is plain SVG 1.1.
package svgplot

import (
	"bytes"
	"fmt"
	"math"

	"copack/internal/geom"
)

// Canvas is a minimal SVG surface with a user-space viewport. User
// coordinates follow the package convention (y grows upward); the canvas
// flips them into SVG screen space.
type Canvas struct {
	buf      bytes.Buffer
	view     geom.Rect
	wPx, hPx float64
}

// NewCanvas creates a canvas of wPx×hPx pixels showing the user-space
// rectangle view.
func NewCanvas(wPx, hPx float64, view geom.Rect) *Canvas {
	c := &Canvas{view: view, wPx: wPx, hPx: hPx}
	fmt.Fprintf(&c.buf, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g">`+"\n",
		wPx, hPx, wPx, hPx)
	fmt.Fprintf(&c.buf, `<rect width="%g" height="%g" fill="white"/>`+"\n", wPx, hPx)
	return c
}

// xy maps user space to screen space.
func (c *Canvas) xy(p geom.Pt) (float64, float64) {
	sx := (p.X - c.view.Min.X) / c.view.W() * c.wPx
	sy := (c.view.Max.Y - p.Y) / c.view.H() * c.hPx
	return sx, sy
}

// Line draws a straight segment.
func (c *Canvas) Line(a, b geom.Pt, stroke string, width float64) {
	x1, y1 := c.xy(a)
	x2, y2 := c.xy(b)
	fmt.Fprintf(&c.buf, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

// Polyline draws an open chain.
func (c *Canvas) Polyline(pl geom.Polyline, stroke string, width float64) {
	if len(pl) < 2 {
		return
	}
	c.buf.WriteString(`<polyline fill="none" points="`)
	for i, p := range pl {
		x, y := c.xy(p)
		if i > 0 {
			c.buf.WriteByte(' ')
		}
		fmt.Fprintf(&c.buf, "%.2f,%.2f", x, y)
	}
	fmt.Fprintf(&c.buf, `" stroke="%s" stroke-width="%.2f"/>`+"\n", stroke, width)
}

// Circle draws a filled circle of user-space radius r.
func (c *Canvas) Circle(center geom.Pt, r float64, fill string) {
	x, y := c.xy(center)
	c.CirclePx(x, y, r/c.view.W()*c.wPx, fill)
}

// CirclePx draws a circle with a pixel radius at the user-space center.
func (c *Canvas) CirclePx(x, y, rPx float64, fill string) {
	fmt.Fprintf(&c.buf, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>`+"\n", x, y, rPx, fill)
}

// CellRect fills the user-space rectangle (used for heat maps).
func (c *Canvas) CellRect(r geom.Rect, fill string) {
	x, y := c.xy(geom.Pt{X: r.Min.X, Y: r.Max.Y}) // top-left in screen space
	w := r.W() / c.view.W() * c.wPx
	h := r.H() / c.view.H() * c.hPx
	fmt.Fprintf(&c.buf, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>`+"\n", x, y, w, h, fill)
}

// Text draws a label anchored at the user-space point.
func (c *Canvas) Text(at geom.Pt, sizePx float64, fill, s string) {
	x, y := c.xy(at)
	fmt.Fprintf(&c.buf, `<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" fill="%s">%s</text>`+"\n",
		x, y, sizePx, fill, escape(s))
}

func escape(s string) string {
	var b bytes.Buffer
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Bytes finalizes the document and returns the SVG source.
func (c *Canvas) Bytes() []byte {
	out := make([]byte, c.buf.Len(), c.buf.Len()+7)
	copy(out, c.buf.Bytes())
	return append(out, []byte("</svg>\n")...)
}

// HeatColor maps t ∈ [0,1] onto a blue→green→red ramp (0 = cool/no drop,
// 1 = hot/worst drop), the conventional IR-map coloring.
func HeatColor(t float64) string {
	t = geom.Clamp(t, 0, 1)
	var r, g, b float64
	switch {
	case t < 0.5:
		// blue → green
		u := t / 0.5
		r, g, b = 0, u, 1-u
	default:
		// green → red
		u := (t - 0.5) / 0.5
		r, g, b = u, 1-u, 0
	}
	return fmt.Sprintf("#%02x%02x%02x", int(math.Round(r*255)), int(math.Round(g*255)), int(math.Round(b*255)))
}
