package lint

import (
	"go/types"
)

// isNetsimNamed reports whether t (after stripping one level of
// pointer) is the named type netsim.<name>.
func isNetsimNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && netsimPkg(obj.Pkg().Path())
}

// isPacket reports whether t is netsim.Packet or *netsim.Packet.
func isPacket(t types.Type) bool { return isNetsimNamed(t, "Packet") }

// isPacketPtr reports whether t is exactly *netsim.Packet.
func isPacketPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNetsimNamed(p.Elem(), "Packet")
}
