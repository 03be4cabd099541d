package value

// Thrown wraps a JavaScript exception value as a Go error. Native
// functions return it to signal a catchable JS throw; the interpreter also
// uses it to surface uncaught exceptions from Run/SafeCall.
type Thrown struct{ Val Value }

// Error implements the error interface.
func (t *Thrown) Error() string {
	if t.Val.IsObject() {
		o := t.Val.Object()
		name, _ := o.Get("name")
		msg, _ := o.Get("message")
		if !name.IsUndefined() || !msg.IsUndefined() {
			return "js: " + name.ToString() + ": " + msg.ToString()
		}
	}
	return "js: uncaught " + t.Val.ToString()
}

// ThrowTypeError builds a catchable TypeError-shaped exception.
func ThrowTypeError(msg string) *Thrown {
	o := &Object{Class: ClassError}
	o.Set("name", String("TypeError"))
	o.Set("message", String(msg))
	return &Thrown{Val: ObjectVal(o)}
}
