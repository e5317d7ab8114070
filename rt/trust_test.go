package rt

import "testing"

// TestTrustDomainsViaSeparateSystems documents the rt analogue of the
// paper's trust-group compromise: scratch buffers recycle freely inside
// one System, so mutually untrusting service sets run in separate
// Systems and never see each other's residue.
func TestTrustDomainsViaSeparateSystems(t *testing.T) {
	secret := newSystem(t, Options{Shards: 1})
	public := newSystem(t, Options{Shards: 1})

	var secretBuf []byte
	s1, err := secret.Bind(ServiceConfig{Name: "vault", Handler: func(ctx *Ctx, args *Args) {
		secretBuf = ctx.Scratch()
		copy(secretBuf, "hunter2")
	}})
	if err != nil {
		t.Fatal(err)
	}
	var publicBuf []byte
	p1, err := public.Bind(ServiceConfig{Name: "www", Handler: func(ctx *Ctx, args *Args) {
		publicBuf = ctx.Scratch()
	}})
	if err != nil {
		t.Fatal(err)
	}

	var args Args
	if err := secret.NewClientWith(ClientOptions{Shard: -1}).Call(s1.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := public.NewClientWith(ClientOptions{Shard: -1}).Call(p1.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if &secretBuf[0] == &publicBuf[0] {
		t.Fatal("separate systems shared a scratch buffer")
	}
	if string(publicBuf[:7]) == "hunter2" {
		t.Fatal("secret residue leaked across trust domains")
	}
}
