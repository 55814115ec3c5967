package topo

import "fmt"

// Addressing assigns deterministic synthetic IPv4 addresses to router
// interfaces so traceroute output can be analyzed the way the paper does:
// by matching hop addresses against prefix lists (the IXP peering LAN).
//
// Scheme:
//   - Each AS owns 10.<asn/256>.<asn%256>.0/24; the interface of its PoP
//     number k (per-AS ordinal) is 10.x.y.<k+1>.
//   - An IXP LAN owns its declared prefix (e.g. 196.60.8.); member m's LAN
//     interface is <prefix><m+1>.

// PoPAddr returns the router address of a PoP inside its AS's prefix.
func (t *Topology) PoPAddr(id PoPID) string { return t.addrs[int(id)] }

// popAddrs derives every PoP's router address from the immutable core, in
// one pass: a PoP's per-AS ordinal is the number of that AS's PoPs before
// it in creation order. Build and Import call it once; clones share the
// result like they share pops.
func popAddrs(pops []PoP) []string {
	ord := make(map[ASN]int)
	out := make([]string, len(pops))
	for i, p := range pops {
		ord[p.AS]++
		out[i] = fmt.Sprintf("10.%d.%d.%d", uint32(p.AS)/256, uint32(p.AS)%256, ord[p.AS])
	}
	return out
}

// IXPAddr returns asn's interface address on the named exchange LAN, or
// ("", false) if it is not a member.
func (t *Topology) IXPAddr(name string, asn ASN) (string, bool) {
	x, ok := t.ixps[name]
	if !ok {
		return "", false
	}
	idx, ok := t.ixpMemberIdx[name][asn]
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s%d", x.Prefix, idx+1), true
}

// HopAddr returns the address a traceroute would report for arriving at PoP
// `to` over link l: if the link is an IXP peering, the far router responds
// from its LAN interface (inside the IXP prefix); otherwise from its own
// AS prefix. This asymmetry is precisely what makes IXP crossings visible
// to the paper's hop-matching methodology.
func (t *Topology) HopAddr(l *Link, to PoPID) string {
	if l.IXP != "" {
		if addr, ok := t.IXPAddr(l.IXP, t.pops[int(to)].AS); ok {
			return addr
		}
	}
	return t.PoPAddr(to)
}
