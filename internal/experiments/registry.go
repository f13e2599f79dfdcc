package experiments

import (
	"context"

	"fmt"
	"io"
	"sort"

	"repro/internal/uarch"
)

// Runner executes one experiment end to end and writes its formatted
// result.
type Runner func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error

// Registry maps experiment identifiers (the paper's figure/table
// numbers) to runners.
var Registry = map[string]Runner{
	"fig2": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig2(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig3": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig3(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig4": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig4(ctx, ec)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig5": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig5(ctx, ec, cfg, nil, nil)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"table4": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Table4(ctx, ec, cfg, nil)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"table5": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Table5(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig6": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig6(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig7": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig7(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"table6": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Table6(ctx, ec, cfg)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"fig8": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := Fig8(ctx, ec, cfg, nil)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
	"ablation": func(ctx context.Context, ec *Context, cfg uarch.Config, w io.Writer) error {
		r, err := AblationWarming(ctx, ec, cfg, nil)
		if err != nil {
			return err
		}
		r.Format(w)
		return nil
	},
}

// Names returns the registered experiment ids in order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment. ctx is honored by the experiment's
// sampling runs (reference ground-truth passes are checked between,
// not interrupted mid-run).
func Run(ctx context.Context, name string, ec *Context, cfg uarch.Config, w io.Writer) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(ctx, ec, cfg, w)
}
