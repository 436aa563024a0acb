package datahub

import (
	"errors"
	"fmt"
	"sync"

	"twophase/internal/synth"
)

// ErrUnknownDataset is the sentinel wrapped by catalog lookups for names
// that are not in the catalog, so serving layers can map "no such target"
// to a not-found response without string matching.
var ErrUnknownDataset = errors.New("datahub: unknown dataset")

// ErrUnknownTask is the sentinel wrapped for task families outside
// {"nlp", "cv"}.
var ErrUnknownTask = errors.New("datahub: unknown task")

// Semantic domains of the synthetic world. NLP and CV domains are disjoint
// except for the per-task core domain added automatically by Generate.
const (
	// NLP domains.
	DomainNLI          = "nli"
	DomainSentiment    = "sentiment"
	DomainParaphrase   = "paraphrase"
	DomainQA           = "qa"
	DomainTopic        = "topic"
	DomainGrammar      = "grammar"
	DomainSimilarity   = "similarity"
	DomainMultilingual = "multilingual"
	DomainFinance      = "finance"
	DomainSocial       = "social"
	// CV domains.
	DomainNatural     = "natural-img"
	DomainObjects     = "objects"
	DomainDigits      = "digits"
	DomainMedicalImg  = "medical-img"
	DomainFood        = "food"
	DomainFineGrained = "fine-grained"
	DomainFaces       = "faces"
	DomainArtworks    = "artworks"
)

// TaskNLP and TaskCV are the two task families of the paper's evaluation.
const (
	TaskNLP = "nlp"
	TaskCV  = "cv"
)

func mix(pairs ...interface{}) map[string]float64 {
	m := make(map[string]float64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return m
}

// NLPBenchmarks returns the 24 NLP benchmark dataset specs used to build
// the performance matrix (GLUE, SuperGLUE and the domain-specific tasks of
// the paper's §V.A / appendix Table IX).
func NLPBenchmarks() []Spec {
	return []Spec{
		// GLUE.
		{Name: "glue/cola", Task: TaskNLP, Domains: mix(DomainGrammar, 1.0), Classes: 2, Separability: 1.7, Noise: 2.1, Benchmark: true, Description: "linguistic acceptability"},
		{Name: "glue/mrpc", Task: TaskNLP, Domains: mix(DomainParaphrase, 0.9, DomainSimilarity, 0.3), Classes: 2, Separability: 1.9, Noise: 2, Benchmark: true, Description: "paraphrase detection"},
		{Name: "glue/qnli", Task: TaskNLP, Domains: mix(DomainQA, 0.7, DomainNLI, 0.5), Classes: 2, Separability: 2.0, Noise: 2, Benchmark: true, Description: "question-answer entailment"},
		{Name: "glue/qqp", Task: TaskNLP, Domains: mix(DomainParaphrase, 1.0), Classes: 2, Separability: 2.1, Noise: 1.9, Benchmark: true, Description: "Quora duplicate questions"},
		{Name: "glue/rte", Task: TaskNLP, Domains: mix(DomainNLI, 1.0), Classes: 2, Separability: 1.5, Noise: 2.2, Benchmark: true, Description: "textual entailment"},
		{Name: "glue/sst2", Task: TaskNLP, Domains: mix(DomainSentiment, 1.0), Classes: 2, Separability: 2.2, Noise: 1.8, Benchmark: true, Description: "movie review sentiment"},
		{Name: "glue/stsb", Task: TaskNLP, Domains: mix(DomainSimilarity, 1.0), Classes: 5, Separability: 1.8, Noise: 2.1, Imbalance: 0.4, Benchmark: true, Description: "semantic similarity (binned)"},
		{Name: "glue/wnli", Task: TaskNLP, Domains: mix(DomainNLI, 0.8, DomainQA, 0.2), Classes: 2, Separability: 1.2, Noise: 2.5, Benchmark: true, Description: "Winograd entailment"},
		// SuperGLUE.
		{Name: "super_glue/cb", Task: TaskNLP, Domains: mix(DomainNLI, 1.0), Classes: 3, Separability: 1.6, Noise: 2.2, Imbalance: 0.5, Benchmark: true, Description: "CommitmentBank entailment"},
		{Name: "super_glue/copa", Task: TaskNLP, Domains: mix(DomainQA, 1.0), Classes: 2, Separability: 1.4, Noise: 2.3, Benchmark: true, Description: "choice of plausible alternatives"},
		{Name: "super_glue/wic", Task: TaskNLP, Domains: mix(DomainSimilarity, 0.8, DomainGrammar, 0.3), Classes: 2, Separability: 1.5, Noise: 2.2, Benchmark: true, Description: "word in context"},
		// Domain-specific HuggingFace tasks.
		{Name: "imdb", Task: TaskNLP, Domains: mix(DomainSentiment, 1.0), Classes: 2, Separability: 2.3, Noise: 1.8, Benchmark: true, Description: "movie review sentiment"},
		{Name: "yelp_review_full", Task: TaskNLP, Domains: mix(DomainSentiment, 0.9, DomainSocial, 0.3), Classes: 5, Separability: 1.8, Noise: 2, Imbalance: 0.2, Benchmark: true, Description: "Yelp review stars"},
		{Name: "yahoo_answers_topics", Task: TaskNLP, Domains: mix(DomainTopic, 1.0), Classes: 10, Separability: 2.0, Noise: 2, Benchmark: true, Description: "Yahoo answers topic"},
		{Name: "dbpedia_14", Task: TaskNLP, Domains: mix(DomainTopic, 1.0), Classes: 14, Separability: 2.2, Noise: 1.9, Benchmark: true, Description: "DBpedia ontology topic"},
		{Name: "xnli", Task: TaskNLP, Domains: mix(DomainNLI, 0.8, DomainMultilingual, 0.5), Classes: 3, Separability: 1.7, Noise: 2.1, Benchmark: true, Description: "cross-lingual NLI"},
		{Name: "anli", Task: TaskNLP, Domains: mix(DomainNLI, 1.0), Classes: 3, Separability: 1.3, Noise: 2.5, Imbalance: 0.3, Benchmark: true, Description: "adversarial NLI"},
		{Name: "app_reviews", Task: TaskNLP, Domains: mix(DomainSentiment, 0.7, DomainSocial, 0.5), Classes: 5, Separability: 1.7, Noise: 2.1, Imbalance: 0.5, Benchmark: true, Description: "software review ratings"},
		{Name: "trec", Task: TaskNLP, Domains: mix(DomainQA, 0.8, DomainTopic, 0.4), Classes: 6, Separability: 1.9, Noise: 2, Benchmark: true, Description: "question classification"},
		{Name: "sick", Task: TaskNLP, Domains: mix(DomainNLI, 0.7, DomainSimilarity, 0.5), Classes: 3, Separability: 1.8, Noise: 2, Benchmark: true, Description: "compositional entailment"},
		{Name: "financial_phrasebank", Task: TaskNLP, Domains: mix(DomainFinance, 0.9, DomainSentiment, 0.5), Classes: 3, Separability: 1.8, Noise: 2, Imbalance: 0.6, Benchmark: true, Description: "financial news sentiment"},
		{Name: "paws", Task: TaskNLP, Domains: mix(DomainParaphrase, 1.0), Classes: 2, Separability: 1.7, Noise: 2.1, Imbalance: 0.3, Benchmark: true, Description: "adversarial paraphrase"},
		{Name: "stsb_multi_mt", Task: TaskNLP, Domains: mix(DomainSimilarity, 0.8, DomainMultilingual, 0.4), Classes: 5, Separability: 1.6, Noise: 2.2, Imbalance: 0.4, Benchmark: true, Description: "multilingual similarity (binned)"},
		{Name: "SetFit/qnli", Task: TaskNLP, Domains: mix(DomainQA, 0.6, DomainNLI, 0.6), Classes: 2, Separability: 1.9, Noise: 2, Benchmark: true, Description: "labelled QNLI"},
	}
}

// NLPTargets returns the four NLP evaluation targets of §V.A.
func NLPTargets() []Spec {
	return []Spec{
		{Name: "tweet_eval", Task: TaskNLP, Domains: mix(DomainSentiment, 0.8, DomainSocial, 0.6), Classes: 3, Separability: 1.6, Noise: 2.2, Imbalance: 0.4, Description: "Twitter sentiment"},
		{Name: "LysandreJik/glue-mnli-train", Task: TaskNLP, Domains: mix(DomainNLI, 1.0), Classes: 3, Separability: 1.9, Noise: 2, Description: "labelled MNLI"},
		{Name: "super_glue/multirc", Task: TaskNLP, Domains: mix(DomainQA, 1.0), Classes: 2, Separability: 1.4, Noise: 2.4, Description: "multi-sentence reading comprehension"},
		{Name: "super_glue/boolq", Task: TaskNLP, Domains: mix(DomainQA, 0.8, DomainNLI, 0.4), Classes: 2, Separability: 1.6, Noise: 2.2, Imbalance: 0.3, Description: "yes/no questions"},
	}
}

// CVBenchmarks returns the 10 CV benchmark dataset specs. The six names of
// appendix Table IX are kept verbatim; four more (FER-2013, Imagenette,
// artworks, age-faces) are added so the matrix has the 30x10 shape reported
// in §V.A — they correspond to the upstream tasks of the paper's CV models
// (lixiqi FER models, nateraw age classifier, oschamp artwork classifier).
func CVBenchmarks() []Spec {
	return []Spec{
		{Name: "food101", Task: TaskCV, Domains: mix(DomainFood, 1.0), Classes: 20, Separability: 2.3, Noise: 2, Benchmark: true, Description: "food photos (class-subsampled)"},
		{Name: "alkzar90/CC6204-Hackaton-Cub-Dataset", Task: TaskCV, Domains: mix(DomainFineGrained, 0.9, DomainNatural, 0.4), Classes: 20, Separability: 1.9, Noise: 2.2, Imbalance: 0.3, Benchmark: true, Description: "CUB birds (class-subsampled)"},
		{Name: "cats_vs_dogs", Task: TaskCV, Domains: mix(DomainNatural, 1.0), Classes: 2, Separability: 2.6, Noise: 1.7, Benchmark: true, Description: "Asirra cats vs dogs"},
		{Name: "cifar10", Task: TaskCV, Domains: mix(DomainObjects, 0.9, DomainNatural, 0.4), Classes: 10, Separability: 2.2, Noise: 2, Benchmark: true, Description: "tiny object photos"},
		{Name: "mnist", Task: TaskCV, Domains: mix(DomainDigits, 1.0), Classes: 10, Separability: 2.8, Noise: 1.6, Benchmark: true, Description: "handwritten digits"},
		{Name: "Matthijs/snacks", Task: TaskCV, Domains: mix(DomainFood, 0.9, DomainObjects, 0.3), Classes: 20, Separability: 2.0, Noise: 2.1, Imbalance: 0.2, Benchmark: true, Description: "snack photos"},
		{Name: "fer2013", Task: TaskCV, Domains: mix(DomainFaces, 1.0), Classes: 7, Separability: 1.7, Noise: 2.3, Imbalance: 0.4, Benchmark: true, Description: "facial expressions"},
		{Name: "imagenette", Task: TaskCV, Domains: mix(DomainNatural, 0.7, DomainObjects, 0.6), Classes: 10, Separability: 2.4, Noise: 1.8, Benchmark: true, Description: "ImageNet subset"},
		{Name: "huggan/wikiart-sample", Task: TaskCV, Domains: mix(DomainArtworks, 1.0), Classes: 8, Separability: 1.8, Noise: 2.2, Benchmark: true, Description: "artwork styles"},
		{Name: "nateraw/fairface-age", Task: TaskCV, Domains: mix(DomainFaces, 0.8, DomainNatural, 0.2), Classes: 8, Separability: 1.6, Noise: 2.3, Imbalance: 0.3, Benchmark: true, Description: "face age buckets"},
	}
}

// CVTargets returns the four CV evaluation targets of §V.A.
func CVTargets() []Spec {
	return []Spec{
		{Name: "trpakov/chest-xray-classification", Task: TaskCV, Domains: mix(DomainMedicalImg, 1.0), Classes: 2, Separability: 1.9, Noise: 2, Imbalance: 0.5, Description: "chest X-ray pneumonia"},
		{Name: "albertvillanova/medmnist-v2", Task: TaskCV, Domains: mix(DomainMedicalImg, 0.9, DomainObjects, 0.2), Classes: 9, Separability: 1.5, Noise: 2.3, Imbalance: 0.4, Description: "biomedical images"},
		{Name: "nelorth/oxford-flowers", Task: TaskCV, Domains: mix(DomainFineGrained, 0.9, DomainNatural, 0.4), Classes: 20, Separability: 2.1, Noise: 2, Imbalance: 0.3, Description: "flowers (class-subsampled)"},
		{Name: "beans", Task: TaskCV, Domains: mix(DomainNatural, 0.7, DomainFineGrained, 0.5), Classes: 3, Separability: 2.0, Noise: 2, Description: "bean leaf disease"},
	}
}

// TaskTargets returns the evaluation-target specs of a task family ("nlp"
// or "cv"): the datasets online requests select models for.
func TaskTargets(task string) ([]Spec, error) {
	switch task {
	case TaskNLP:
		return NLPTargets(), nil
	case TaskCV:
		return CVTargets(), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownTask, task)
	}
}

// TargetNames lists a task family's target dataset names in catalog order.
// The names are static — no seed or split size changes them — so listing
// the catalog needs no world.
func TargetNames(task string) ([]string, error) {
	specs, err := TaskTargets(task)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names, nil
}

// Catalog is a task family's benchmark and target datasets, indexed by
// name. It keeps specs: Get generates a dataset on its first read and
// keeps it, Benchmarks generates afresh and keeps none. Each dataset
// draws from its own named stream, so generation order never changes one.
type Catalog struct {
	World   *synth.World
	Sizes   Sizes // resolved: a zero Sizes reads DefaultSizes here
	byName  map[string]*entry
	ordered []*entry
}

// entry is one catalog dataset, generated on its first Get.
type entry struct {
	spec Spec
	once sync.Once
	d    *Dataset
}

// newCatalog checks the given specs against the sizes and indexes them;
// it generates nothing.
func newCatalog(w *synth.World, sizes Sizes, specs ...[]Spec) (*Catalog, error) {
	sizes = sizes.resolve()
	c := &Catalog{World: w, Sizes: sizes, byName: make(map[string]*entry)}
	for _, group := range specs {
		for _, spec := range group {
			if _, dup := c.byName[spec.Name]; dup {
				return nil, fmt.Errorf("datahub: duplicate dataset %q", spec.Name)
			}
			if err := check(spec, sizes); err != nil {
				return nil, err
			}
			e := &entry{spec: spec}
			c.byName[spec.Name] = e
			c.ordered = append(c.ordered, e)
		}
	}
	return c, nil
}

// NewTaskCatalog returns the benchmark+target catalog of a task family
// ("nlp" or "cv"). It rejects an invalid spec or split size at once but
// generates no dataset.
func NewTaskCatalog(w *synth.World, task string, sizes Sizes) (*Catalog, error) {
	switch task {
	case TaskNLP:
		return newCatalog(w, sizes, NLPBenchmarks(), NLPTargets())
	case TaskCV:
		return newCatalog(w, sizes, CVBenchmarks(), CVTargets())
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownTask, task)
	}
}

// Get returns the dataset by name, or an error if it is not in the
// catalog. The first Get of a name generates the dataset and the catalog
// keeps it; concurrent first callers share that one generation.
func (c *Catalog) Get(name string) (*Dataset, error) {
	e, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q not in catalog", ErrUnknownDataset, name)
	}
	return c.load(e), nil
}

// load generates e's dataset once and keeps it.
func (c *Catalog) load(e *entry) *Dataset {
	e.once.Do(func() { e.d = generate(c.World, e.spec, c.Sizes) })
	return e.d
}

// Benchmarks generates the benchmark datasets afresh, in registration
// order, and keeps none of them: the offline matrix stage is their one
// reader. A request that names a benchmark reads it through Get.
func (c *Catalog) Benchmarks() []*Dataset {
	var out []*Dataset
	for _, e := range c.ordered {
		if e.spec.Benchmark {
			out = append(out, generate(c.World, e.spec, c.Sizes))
		}
	}
	return out
}

// BenchmarkNames lists the benchmark dataset names in registration
// order, generating nothing.
func (c *Catalog) BenchmarkNames() []string {
	var out []string
	for _, e := range c.ordered {
		if e.spec.Benchmark {
			out = append(out, e.spec.Name)
		}
	}
	return out
}

// Targets returns the non-benchmark (evaluation) datasets in registration
// order. Like Get, it generates each on its first read and keeps it.
func (c *Catalog) Targets() []*Dataset {
	var out []*Dataset
	for _, e := range c.ordered {
		if !e.spec.Benchmark {
			out = append(out, c.load(e))
		}
	}
	return out
}
