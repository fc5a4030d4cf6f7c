package attr

// Pair is an ordered pair of attribute lists (X, Y): the two sides of an OD
// candidate X → Y or an OCD candidate X ~ Y.
type Pair struct {
	X List `json:"x"`
	Y List `json:"y"`
}

// NewPair returns the pair (x, y).
func NewPair(x, y List) Pair { return Pair{X: x, Y: y} }

// Key returns a canonical key distinguishing ordered pairs: (X,Y) and (Y,X)
// get different keys. Use UnorderedKey for OCD candidates, which are
// commutative (X ~ Y ⇔ Y ~ X).
func (p Pair) Key() string {
	return p.X.Key() + "|" + p.Y.Key()
}

// UnorderedKey returns a key under which (X,Y) and (Y,X) collide, matching
// the commutativity of order compatibility.
func (p Pair) UnorderedKey() string {
	a, b := p.X.Key(), p.Y.Key()
	if cmpListKey(p.X, p.Y) <= 0 {
		return a + "|" + b
	}
	return b + "|" + a
}

func cmpListKey(x, y List) int { return x.Compare(y) }

// Format renders the pair as "X ~ Y" with the given separator.
func (p Pair) Format(names func(ID) string, sep string) string {
	return p.X.Format(names) + " " + sep + " " + p.Y.Format(names)
}
