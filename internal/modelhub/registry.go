package modelhub

import (
	"fmt"
	"sync"

	"twophase/internal/datahub"
	"twophase/internal/synth"
)

func mix(pairs ...interface{}) map[string]float64 {
	m := make(map[string]float64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return m
}

// in1k and in21k are the upstream domain mixtures of ImageNet-1k and
// ImageNet-21k pre-training: 21k covers a broader slice of the visual
// world (fine-grained categories, food), which is what makes the paper's
// C3 cluster of 21k models hang together.
func in1k() map[string]float64 {
	return mix(datahub.DomainNatural, 0.6, datahub.DomainObjects, 0.6)
}
func in21k() map[string]float64 {
	return mix(datahub.DomainNatural, 0.5, datahub.DomainObjects, 0.5, datahub.DomainFineGrained, 0.4, datahub.DomainFood, 0.25)
}

// NLPSpecs returns the 40 NLP model specs of appendix Table VIII.
// Capability and domain mixtures are inferred from each model's name and
// card the same way the paper's own discussion does (e.g. "feather berts
// are BERT models fine-tuned on MNLI").
func NLPSpecs() []Spec {
	n := datahub.TaskNLP
	return []Spec{
		{Name: "18811449050/bert_finetuning_test", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSentiment, 0.4), Capability: 0.47, SourceClasses: 2, Upstream: []string{"sst2 (test run)"}},
		{Name: "aditeyabaral/finetuned-sail2017-xlm-roberta-base", Task: n, Arch: "xlm-roberta", Params: 270, Domains: mix(datahub.DomainMultilingual, 0.5, datahub.DomainSentiment, 0.5), Capability: 0.56, SourceClasses: 3, Upstream: []string{"sail2017"}},
		{Name: "albert-base-v2", Task: n, Arch: "albert", Params: 12, Domains: mix(), Capability: 0.72, SourceClasses: 30, Upstream: nil},
		{Name: "aliosm/sha3bor-metre-detector-arabertv2-base", Task: n, Arch: "arabert", Params: 135, Domains: mix(datahub.DomainMultilingual, 0.7, datahub.DomainGrammar, 0.3), Capability: 0.42, SourceClasses: 16, Upstream: []string{"arabic poetry metres"}},
		{Name: "Alireza1044/albert-base-v2-qnli", Task: n, Arch: "albert", Params: 12, Domains: mix(datahub.DomainQA, 0.6, datahub.DomainNLI, 0.5), Capability: 0.68, SourceClasses: 2, Upstream: []string{"qnli"}},
		{Name: "anirudh21/bert-base-uncased-finetuned-qnli", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainQA, 0.5, datahub.DomainNLI, 0.4, datahub.DomainGrammar, 0.2), Capability: 0.57, SourceClasses: 2, Upstream: []string{"qnli"}},
		{Name: "aviator-neural/bert-base-uncased-sst2", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSentiment, 0.7), Capability: 0.58, SourceClasses: 2, Upstream: []string{"sst2"}},
		{Name: "aychang/bert-base-cased-trec-coarse", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainQA, 0.6, datahub.DomainTopic, 0.4), Capability: 0.56, SourceClasses: 6, Upstream: []string{"trec"}},
		{Name: "bert-base-uncased", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainGrammar, 0.2), Capability: 0.70, SourceClasses: 30, Upstream: nil},
		{Name: "bondi/bert-semaphore-prediction-w4", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSocial, 0.3), Capability: 0.35, SourceClasses: 2, Upstream: []string{"semaphore prediction"}},
		{Name: "CAMeL-Lab/bert-base-arabic-camelbert-da-sentiment", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainMultilingual, 0.6, datahub.DomainSentiment, 0.5), Capability: 0.46, SourceClasses: 3, Upstream: []string{"arabic sentiment"}},
		{Name: "CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainMultilingual, 0.8), Capability: 0.40, SourceClasses: 21, Upstream: []string{"nadi dialect id"}},
		{Name: "classla/bcms-bertic-parlasent-bcs-ter", Task: n, Arch: "bertic", Params: 110, Domains: mix(datahub.DomainMultilingual, 0.6, datahub.DomainSentiment, 0.4), Capability: 0.43, SourceClasses: 3, Upstream: []string{"parlasent"}},
		{Name: "connectivity/bert_ft_qqp-1", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.62, SourceClasses: 2, Upstream: []string{"qqp"}},
		{Name: "connectivity/bert_ft_qqp-17", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.45, SourceClasses: 2, Upstream: []string{"qqp (unstable run)"}},
		{Name: "connectivity/bert_ft_qqp-7", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.61, SourceClasses: 2, Upstream: []string{"qqp"}},
		{Name: "connectivity/bert_ft_qqp-96", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.46, SourceClasses: 2, Upstream: []string{"qqp (unstable run)"}},
		{Name: "dhimskyy/wiki-bert", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainTopic, 0.4), Capability: 0.40, SourceClasses: 10, Upstream: []string{"wikipedia"}},
		{Name: "distilbert-base-uncased", Task: n, Arch: "distilbert", Params: 66, Domains: mix(datahub.DomainSentiment, 0.15), Capability: 0.62, SourceClasses: 30, Upstream: nil},
		{Name: "DoyyingFace/bert-asian-hate-tweets-asian-unclean-freeze-4", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSocial, 0.5, datahub.DomainSentiment, 0.4, datahub.DomainGrammar, 0.15), Capability: 0.55, SourceClasses: 2, Upstream: []string{"asian hate tweets"}},
		{Name: "emrecan/bert-base-multilingual-cased-snli_tr", Task: n, Arch: "bert", Params: 178, Domains: mix(datahub.DomainMultilingual, 0.5, datahub.DomainNLI, 0.5), Capability: 0.52, SourceClasses: 3, Upstream: []string{"snli-tr"}},
		{Name: "gchhablani/bert-base-cased-finetuned-rte", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainNLI, 0.7), Capability: 0.56, SourceClasses: 2, Upstream: []string{"rte"}},
		{Name: "gchhablani/bert-base-cased-finetuned-wnli", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainNLI, 0.6, datahub.DomainQA, 0.2), Capability: 0.50, SourceClasses: 2, Upstream: []string{"wnli"}},
		{Name: "Guscode/DKbert-hatespeech-detection", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainMultilingual, 0.5, datahub.DomainSocial, 0.5), Capability: 0.44, SourceClasses: 2, Upstream: []string{"danish hatespeech"}},
		{Name: "ishan/bert-base-uncased-mnli", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainNLI, 0.8, datahub.DomainQA, 0.2), Capability: 0.68, SourceClasses: 3, Upstream: []string{"mnli"}},
		{Name: "jb2k/bert-base-multilingual-cased-language-detection", Task: n, Arch: "bert", Params: 178, Domains: mix(datahub.DomainMultilingual, 0.8), Capability: 0.47, SourceClasses: 20, Upstream: []string{"language detection"}},
		{Name: "Jeevesh8/512seq_len_6ep_bert_ft_cola-91", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainGrammar, 0.7), Capability: 0.55, SourceClasses: 2, Upstream: []string{"cola"}},
		{Name: "Jeevesh8/6ep_bert_ft_cola-47", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainGrammar, 0.7), Capability: 0.52, SourceClasses: 2, Upstream: []string{"cola"}},
		{Name: "Jeevesh8/bert_ft_cola-88", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainGrammar, 0.7), Capability: 0.54, SourceClasses: 2, Upstream: []string{"cola"}},
		{Name: "Jeevesh8/bert_ft_qqp-40", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.62, SourceClasses: 2, Upstream: []string{"qqp"}},
		{Name: "Jeevesh8/bert_ft_qqp-68", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.63, SourceClasses: 2, Upstream: []string{"qqp"}},
		{Name: "Jeevesh8/bert_ft_qqp-9", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.62, SourceClasses: 2, Upstream: []string{"qqp"}},
		{Name: "Jeevesh8/feather_berts_46", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainNLI, 0.8), Capability: 0.66, SourceClasses: 3, Upstream: []string{"mnli (feather bert)"}},
		{Name: "Jeevesh8/init_bert_ft_qqp-24", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.44, SourceClasses: 2, Upstream: []string{"qqp (re-init run)"}},
		{Name: "Jeevesh8/init_bert_ft_qqp-33", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainParaphrase, 0.8), Capability: 0.45, SourceClasses: 2, Upstream: []string{"qqp (re-init run)"}},
		{Name: "manueltonneau/bert-twitter-en-is-hired", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSocial, 0.5, datahub.DomainGrammar, 0.2), Capability: 0.52, SourceClasses: 2, Upstream: []string{"twitter employment"}},
		{Name: "roberta-base", Task: n, Arch: "roberta", Params: 125, Domains: mix(datahub.DomainNLI, 0.15, datahub.DomainSentiment, 0.1), Capability: 0.78, SourceClasses: 30, Upstream: nil},
		{Name: "socialmediaie/TRAC2020_IBEN_B_bert-base-multilingual-uncased", Task: n, Arch: "bert", Params: 168, Domains: mix(datahub.DomainMultilingual, 0.6, datahub.DomainSocial, 0.5), Capability: 0.44, SourceClasses: 3, Upstream: []string{"trac2020"}},
		{Name: "Splend1dchan/bert-base-uncased-slue-goldtrascription-e3-lr1e-4", Task: n, Arch: "bert", Params: 110, Domains: mix(datahub.DomainSocial, 0.3, datahub.DomainTopic, 0.3), Capability: 0.48, SourceClasses: 2, Upstream: []string{"slue transcription"}},
		{Name: "XSY/albert-base-v2-imdb-calssification", Task: n, Arch: "albert", Params: 12, Domains: mix(datahub.DomainSentiment, 0.7), Capability: 0.60, SourceClasses: 2, Upstream: []string{"imdb"}},
	}
}

// CVSpecs returns the 30 CV model specs of appendix Table VIII.
func CVSpecs() []Spec {
	c := datahub.TaskCV
	return []Spec{
		{Name: "facebook/deit-base-patch16-224", Task: c, Arch: "deit", Params: 86, Domains: in1k(), Capability: 0.72, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "facebook/deit-base-patch16-384", Task: c, Arch: "deit", Params: 86, Domains: in1k(), Capability: 0.74, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "facebook/deit-small-patch16-224", Task: c, Arch: "deit", Params: 22, Domains: in1k(), Capability: 0.62, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "facebook/dino-vitb16", Task: c, Arch: "vit-dino", Params: 86, Domains: in21k(), Capability: 0.75, SourceClasses: 50, Upstream: []string{"imagenet-1k (self-supervised)"}},
		{Name: "facebook/dino-vitb8", Task: c, Arch: "vit-dino", Params: 86, Domains: in21k(), Capability: 0.76, SourceClasses: 50, Upstream: []string{"imagenet-1k (self-supervised)"}},
		{Name: "facebook/dino-vits16", Task: c, Arch: "vit-dino", Params: 22, Domains: in1k(), Capability: 0.64, SourceClasses: 50, Upstream: []string{"imagenet-1k (self-supervised)"}},
		{Name: "facebook/vit-msn-base", Task: c, Arch: "vit-msn", Params: 86, Domains: in1k(), Capability: 0.70, SourceClasses: 50, Upstream: []string{"imagenet-1k (msn)"}},
		{Name: "facebook/vit-msn-small", Task: c, Arch: "vit-msn", Params: 22, Domains: in1k(), Capability: 0.63, SourceClasses: 50, Upstream: []string{"imagenet-1k (msn)"}},
		{Name: "google/vit-base-patch16-224", Task: c, Arch: "vit", Params: 86, Domains: in21k(), Capability: 0.76, SourceClasses: 50, Upstream: []string{"imagenet-21k", "imagenet-1k"}},
		{Name: "google/vit-base-patch16-384", Task: c, Arch: "vit", Params: 86, Domains: in21k(), Capability: 0.78, SourceClasses: 50, Upstream: []string{"imagenet-21k", "imagenet-1k"}},
		{Name: "google/vit-base-patch32-224-in21k", Task: c, Arch: "vit", Params: 88, Domains: in21k(), Capability: 0.66, SourceClasses: 50, Upstream: []string{"imagenet-21k"}},
		{Name: "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-6e-05", Task: c, Arch: "beit", Params: 86, Domains: mix(datahub.DomainFaces, 0.7, datahub.DomainNatural, 0.25, datahub.DomainObjects, 0.25), Capability: 0.60, SourceClasses: 7, Upstream: []string{"imagenet-22k", "fer2013"}},
		{Name: "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-7e-05", Task: c, Arch: "beit", Params: 86, Domains: mix(datahub.DomainFaces, 0.7, datahub.DomainNatural, 0.25, datahub.DomainObjects, 0.25), Capability: 0.61, SourceClasses: 7, Upstream: []string{"imagenet-22k", "fer2013"}},
		{Name: "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER-5e-05-3", Task: c, Arch: "beit", Params: 86, Domains: mix(datahub.DomainFaces, 0.7, datahub.DomainNatural, 0.25, datahub.DomainObjects, 0.25), Capability: 0.58, SourceClasses: 7, Upstream: []string{"imagenet-22k", "fer2013"}},
		{Name: "microsoft/beit-base-patch16-224", Task: c, Arch: "beit", Params: 86, Domains: in21k(), Capability: 0.74, SourceClasses: 50, Upstream: []string{"imagenet-22k", "imagenet-1k"}},
		{Name: "microsoft/beit-base-patch16-224-pt22k", Task: c, Arch: "beit", Params: 86, Domains: mix(datahub.DomainObjects, 0.4, datahub.DomainNatural, 0.3), Capability: 0.58, SourceClasses: 50, Upstream: []string{"imagenet-22k (pre-train only)"}},
		{Name: "microsoft/beit-base-patch16-224-pt22k-ft22k", Task: c, Arch: "beit", Params: 86, Domains: in21k(), Capability: 0.72, SourceClasses: 50, Upstream: []string{"imagenet-22k"}},
		{Name: "microsoft/beit-base-patch16-384", Task: c, Arch: "beit", Params: 86, Domains: in21k(), Capability: 0.76, SourceClasses: 50, Upstream: []string{"imagenet-22k", "imagenet-1k"}},
		{Name: "microsoft/beit-large-patch16-224-pt22k", Task: c, Arch: "beit", Params: 304, Domains: mix(datahub.DomainObjects, 0.4, datahub.DomainNatural, 0.3), Capability: 0.61, SourceClasses: 50, Upstream: []string{"imagenet-22k (pre-train only)"}},
		{Name: "mrgiraffe/vit-large-dataset-model-v3", Task: c, Arch: "vit", Params: 304, Domains: mix(datahub.DomainObjects, 0.4), Capability: 0.50, SourceClasses: 20, Upstream: []string{"unspecified large dataset"}},
		{Name: "sail/poolformer_m36", Task: c, Arch: "poolformer", Params: 56, Domains: in1k(), Capability: 0.58, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "sail/poolformer_m48", Task: c, Arch: "poolformer", Params: 73, Domains: in1k(), Capability: 0.60, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "sail/poolformer_s36", Task: c, Arch: "poolformer", Params: 31, Domains: in1k(), Capability: 0.52, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "shi-labs/dinat-base-in1k-224", Task: c, Arch: "dinat", Params: 90, Domains: in1k(), Capability: 0.68, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "shi-labs/dinat-large-in22k-in1k-224", Task: c, Arch: "dinat", Params: 200, Domains: in21k(), Capability: 0.78, SourceClasses: 50, Upstream: []string{"imagenet-22k", "imagenet-1k"}},
		{Name: "shi-labs/dinat-large-in22k-in1k-384", Task: c, Arch: "dinat", Params: 200, Domains: in21k(), Capability: 0.80, SourceClasses: 50, Upstream: []string{"imagenet-22k", "imagenet-1k"}},
		{Name: "Visual-Attention-Network/van-base", Task: c, Arch: "van", Params: 27, Domains: in1k(), Capability: 0.64, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "Visual-Attention-Network/van-large", Task: c, Arch: "van", Params: 45, Domains: in1k(), Capability: 0.70, SourceClasses: 50, Upstream: []string{"imagenet-1k"}},
		{Name: "oschamp/vit-artworkclassifier", Task: c, Arch: "vit", Params: 86, Domains: mix(datahub.DomainArtworks, 0.8, datahub.DomainNatural, 0.2), Capability: 0.55, SourceClasses: 8, Upstream: []string{"wikiart"}},
		{Name: "nateraw/vit-age-classifier", Task: c, Arch: "vit", Params: 86, Domains: mix(datahub.DomainFaces, 0.7, datahub.DomainNatural, 0.2), Capability: 0.60, SourceClasses: 8, Upstream: []string{"fairface"}},
	}
}

// Repository is a task family's model repository (the paper's M),
// indexed by name. It keeps specs: a model materializes on its first read
// (Get or Models, on the repository or a Subset of it) and the repository
// keeps it, feature cache and all. Each model draws from its own named stream and the world's
// name-keyed domain bases, so materialization order never changes one.
type Repository struct {
	Task    string
	world   *synth.World
	byName  map[string]*entry
	ordered []*entry
}

// entry is one repository model, materialized on its first read. A
// Subset shares its parent's entries, so a model exists once per world.
type entry struct {
	spec  Spec
	bound int // featureCacheBound(spec.Task), fixed by check
	once  sync.Once
	m     *Model
}

// NewRepository checks every spec against the task and indexes it; it
// materializes nothing.
func NewRepository(w *synth.World, task string, specs []Spec) (*Repository, error) {
	r := &Repository{Task: task, world: w, byName: make(map[string]*entry, len(specs))}
	for _, spec := range specs {
		if spec.Task != task {
			return nil, fmt.Errorf("modelhub: model %q has task %q, repository wants %q", spec.Name, spec.Task, task)
		}
		if _, dup := r.byName[spec.Name]; dup {
			return nil, fmt.Errorf("modelhub: duplicate model %q", spec.Name)
		}
		bound, err := check(spec)
		if err != nil {
			return nil, err
		}
		e := &entry{spec: spec, bound: bound}
		r.byName[spec.Name] = e
		r.ordered = append(r.ordered, e)
	}
	return r, nil
}

// NewTaskRepository returns the paper's full repository for a task
// family: 40 models for "nlp", 30 for "cv". It rejects an invalid spec at
// once but materializes no model.
func NewTaskRepository(w *synth.World, task string) (*Repository, error) {
	switch task {
	case datahub.TaskNLP:
		return NewRepository(w, task, NLPSpecs())
	case datahub.TaskCV:
		return NewRepository(w, task, CVSpecs())
	default:
		return nil, fmt.Errorf("modelhub: unknown task %q", task)
	}
}

// load materializes e's model once and keeps it; concurrent first readers
// share that one materialization.
func (r *Repository) load(e *entry) *Model {
	e.once.Do(func() { e.m = materialize(r.world, e.spec, e.bound) })
	return e.m
}

// Models returns the repository contents in registration order,
// materializing every model not read yet: the strategies that search the
// whole repository (sh, bf, lsq) and the matrix build read them all.
func (r *Repository) Models() []*Model {
	out := make([]*Model, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = r.load(e)
	}
	return out
}

// Len returns the number of models.
func (r *Repository) Len() int { return len(r.ordered) }

// Names lists the model names in registration order, materializing
// nothing.
func (r *Repository) Names() []string {
	out := make([]string, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.spec.Name
	}
	return out
}

// Get returns a model by name, or an error if absent. The first Get of a
// name materializes the model.
func (r *Repository) Get(name string) (*Model, error) {
	e, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("modelhub: model %q not in repository", name)
	}
	return r.load(e), nil
}

// Subset returns a new repository restricted to the named models, in the
// given order. It shares the parent's entries: a model the subset
// materializes is the parent's, and one the parent already holds is
// reused.
func (r *Repository) Subset(names []string) (*Repository, error) {
	sub := &Repository{Task: r.Task, world: r.world, byName: make(map[string]*entry, len(names))}
	for _, n := range names {
		e, ok := r.byName[n]
		if !ok {
			return nil, fmt.Errorf("modelhub: model %q not in repository", n)
		}
		if _, dup := sub.byName[n]; dup {
			return nil, fmt.Errorf("modelhub: duplicate model %q in subset", n)
		}
		sub.byName[n] = e
		sub.ordered = append(sub.ordered, e)
	}
	return sub, nil
}
